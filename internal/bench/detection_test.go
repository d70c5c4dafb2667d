package bench

import (
	"fmt"
	"testing"

	"safemem/internal/apps"
)

// TestDetection verifies every planted bug is found with buggy inputs.
func TestDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("detection run is slow")
	}
	for _, app := range apps.All() {
		res, err := Run(app.Name, ToolSafeMemBoth, apps.Config{Seed: 42, Buggy: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil {
			t.Errorf("%s buggy run failed: %v", app.Name, res.Err)
		}
		if !DetectedBug(app, res) {
			t.Errorf("%s: planted %v bug NOT detected; reports: %v", app.Name, app.Class, res.SafeMem)
		} else {
			tp, fp := ClassifyLeaks(app, res.SafeMem)
			fmt.Printf("%-8s detected %v (reports=%d tp=%d fp=%d)\n", app.Name, app.Class, len(res.SafeMem), tp, fp)
			for _, r := range res.SafeMem {
				if r.Kind.IsLeak() && (app.IsRealLeak == nil || !app.IsRealLeak(r.Site, r.BufferSize)) {
					fmt.Printf("    FP: %s\n", r)
				}
			}
		}
	}
}
