package gcdiag

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/lint"
)

func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestManifestVersion pins the schema version; bumping it must be a
// deliberate act that also regenerates the golden file.
func TestManifestVersion(t *testing.T) {
	if ManifestVersion != 1 {
		t.Fatalf("ManifestVersion = %d; if this bump is intentional, regenerate %s and update this pin", ManifestVersion, GoldenPath)
	}
}

// TestGoldenRoundTrip loads the committed manifest, pushes it through a
// marshal/unmarshal cycle, and requires bit-equal structures.
func TestGoldenRoundTrip(t *testing.T) {
	golden, err := Load(filepath.Join(moduleRoot(t), filepath.FromSlash(GoldenPath)))
	if err != nil {
		t.Fatal(err)
	}
	if golden.ManifestVersion != ManifestVersion {
		t.Fatalf("golden manifest version %d, want %d", golden.ManifestVersion, ManifestVersion)
	}
	if golden.Go == "" {
		t.Fatal("golden manifest has no pinned go version")
	}
	data, err := json.Marshal(golden)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(golden, &back) {
		t.Fatal("manifest does not survive a marshal round trip")
	}
	// The golden file must cover exactly the watched files.
	for _, f := range Watched {
		if _, ok := golden.Files[f]; !ok {
			t.Errorf("golden manifest missing watched file %s", f)
		}
	}
	if len(golden.Files) != len(Watched) {
		t.Errorf("golden manifest has %d files, want %d", len(golden.Files), len(Watched))
	}
}

// TestDiff seeds every drift flavour and checks each produces a message
// naming the file and function.
func TestDiff(t *testing.T) {
	golden := &Manifest{
		ManifestVersion: ManifestVersion,
		Go:              "goX",
		Files: map[string]map[string]FuncDiag{
			"internal/engine/span.go": {
				"execHFwdWords":    {BoundsChecks: 0},
				"runDistinctSpans": {BoundsChecks: 3, Escapes: []string{"make([]int32, n) escapes to heap"}},
			},
		},
	}
	clean := &Manifest{
		ManifestVersion: ManifestVersion,
		Go:              "goX",
		Files: map[string]map[string]FuncDiag{
			"internal/engine/span.go": {
				"execHFwdWords":    {BoundsChecks: 0},
				"runDistinctSpans": {BoundsChecks: 3, Escapes: []string{"make([]int32, n) escapes to heap"}},
			},
		},
	}
	if drift := Diff(golden, clean); len(drift) != 0 {
		t.Fatalf("equal manifests drift: %v", drift)
	}

	cases := []struct {
		name   string
		mutate func(*Manifest)
		want   string
	}{
		{"reintroduced bounds check", func(m *Manifest) {
			m.Files["internal/engine/span.go"]["execHFwdWords"] = FuncDiag{BoundsChecks: 1}
		}, "execHFwdWords: bounds checks 0 -> 1"},
		{"new heap escape", func(m *Manifest) {
			d := m.Files["internal/engine/span.go"]["runDistinctSpans"]
			d.Escapes = append(append([]string{}, d.Escapes...), "x escapes to heap")
			m.Files["internal/engine/span.go"]["runDistinctSpans"] = d
		}, "runDistinctSpans: heap escapes"},
		{"fixed escape also drifts", func(m *Manifest) {
			d := m.Files["internal/engine/span.go"]["runDistinctSpans"]
			d.Escapes = nil
			m.Files["internal/engine/span.go"]["runDistinctSpans"] = d
		}, "runDistinctSpans: heap escapes"},
		{"new dirty function", func(m *Manifest) {
			m.Files["internal/engine/span.go"]["execVSpan1"] = FuncDiag{BoundsChecks: 2}
		}, "execVSpan1: bounds checks 0 -> 2"},
	}
	for _, c := range cases {
		cur := &Manifest{ManifestVersion: ManifestVersion, Go: "goX", Files: map[string]map[string]FuncDiag{
			"internal/engine/span.go": {
				"execHFwdWords":    {BoundsChecks: 0},
				"runDistinctSpans": {BoundsChecks: 3, Escapes: []string{"make([]int32, n) escapes to heap"}},
			},
		}}
		c.mutate(cur)
		drift := Diff(golden, cur)
		if len(drift) == 0 {
			t.Errorf("%s: no drift reported", c.name)
			continue
		}
		found := false
		for _, d := range drift {
			if strings.Contains(d, c.want) && strings.Contains(d, "internal/engine/span.go") {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: drift %v does not name the function (want %q)", c.name, drift, c.want)
		}
	}

	bad := &Manifest{ManifestVersion: ManifestVersion + 1}
	if drift := Diff(bad, clean); len(drift) != 1 || !strings.Contains(drift[0], "manifest version") {
		t.Errorf("version mismatch drift = %v", drift)
	}
}

func TestParseDiagLine(t *testing.T) {
	cases := []struct {
		in   string
		file string
		ln   int
		msg  string
		ok   bool
	}{
		{"internal/engine/span.go:311:9: Found IsInBounds", "internal/engine/span.go", 311, "Found IsInBounds", true},
		{"./internal/zeroone/sliced.go:10:2: make([]int, n) escapes to heap", "internal/zeroone/sliced.go", 10, "make([]int, n) escapes to heap", true},
		{"# repro/internal/engine", "", 0, "", false},
		{"/usr/local/go/src/fmt/print.go:1:1: Found IsInBounds", "", 0, "", false},
		{"internal/engine/span.go:notanum:9: x", "", 0, "", false},
	}
	for _, c := range cases {
		file, ln, _, msg, ok := parseDiagLine(c.in)
		if ok != c.ok || file != c.file || ln != c.ln || msg != c.msg {
			t.Errorf("parseDiagLine(%q) = %q,%d,%q,%v; want %q,%d,%q,%v",
				c.in, file, ln, msg, ok, c.file, c.ln, c.msg, c.ok)
		}
	}
}

func TestKeepMessage(t *testing.T) {
	keep := []string{"Found IsInBounds", "Found IsSliceInBounds", "make([]int, n) escapes to heap", "moved to heap: x"}
	drop := []string{"can inline b2i", "inlining call to b2i", "s does not escape", "leaking param: w", "ignoring self-assignment"}
	for _, m := range keep {
		if !keepMessage(m) {
			t.Errorf("keepMessage(%q) = false, want true", m)
		}
	}
	for _, m := range drop {
		if keepMessage(m) {
			t.Errorf("keepMessage(%q) = true, want false", m)
		}
	}
}

// TestGate runs the real gate against the committed manifest: under the
// pinned toolchain it must pass drift-free, under any other it must skip
// with a notice naming both versions.
func TestGate(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the kernel packages with diagnostic flags; skipped with -short")
	}
	res, err := Run(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped {
		if !strings.Contains(res.Notice, runtime.Version()) {
			t.Errorf("skip notice %q does not name the running toolchain", res.Notice)
		}
		t.Skipf("golden manifest pinned to a different toolchain: %s", res.Notice)
	}
	for _, d := range res.Drift {
		t.Errorf("manifest drift: %s", d)
	}
	for _, f := range res.Findings {
		t.Logf("  now: %s", f)
	}
}
