// Package fingerprint pins the digests the scaling tests compute over
// estimates that must stay bitwise identical across worker counts, core
// counts, placements and refactors. A digest lives in the calling
// package's testdata/<name>.fingerprint; a deliberate change rewrites it
// with the package's -update flag and shows up as a one-line diff.
package fingerprint

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// Check compares got, a hex digest, with the pinned one, or rewrites the
// pin when update is set. Pins hold on amd64, the CI architecture; on
// others the compiler may fuse multiply-adds into different bits, so the
// comparison is skipped with a message.
func Check(t testing.TB, name, got string, update bool) {
	t.Helper()
	path := filepath.Join("testdata", name+".fingerprint")
	if update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("fingerprint %s is pinned on amd64; %s may fuse multiply-adds", name, runtime.GOARCH)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (rerun with -update to pin it)", err)
	}
	if want := strings.TrimSpace(string(raw)); got != want {
		t.Errorf("fingerprint %s = %s, pinned %s (rerun with -update if the change is deliberate)", name, got, want)
	}
}
