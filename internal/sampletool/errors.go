package sampletool

import (
	"fmt"

	"safemem/internal/vm"
)

func errPoolEntry(va vm.VAddr) error {
	return fmt.Errorf("sampletool invariant: pool entry %#x has no live block", uint64(va))
}

func errUnsampledWatched(va vm.VAddr) error {
	return fmt.Errorf("sampletool invariant: unsampled live block %#x carries a watch", uint64(va))
}
