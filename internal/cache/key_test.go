package cache

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the cache-key golden file")

// goldenTrace loads the canonical DOACROSS golden trace shared with the
// repository-level golden tests.
func goldenTrace(t testing.TB) *trace.Trace {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "testdata", "golden", "doacross.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func testCal() instr.Calibration {
	return instr.Exact(instr.Uniform(100), 50, 80, 30, 40)
}

// TestKeyCodecInvariance re-encodes the same trace through all three
// codecs and decodes each back: every decode must produce the same cache
// key, because the key hashes the decoded events, not the wire bytes.
func TestKeyCodecInvariance(t *testing.T) {
	tr := goldenTrace(t)
	wantKey, wantSHA, err := Key(tr, testCal(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	encoders := map[string]func(*trace.Trace, io.Writer) error{
		"text":     func(tr *trace.Trace, w io.Writer) error { return tr.WriteText(w) },
		"binary":   func(tr *trace.Trace, w io.Writer) error { return tr.WriteBinary(w) },
		"columnar": func(tr *trace.Trace, w io.Writer) error { return tr.WriteColumnar(w) },
	}
	for name, enc := range encoders {
		var buf bytes.Buffer
		if err := enc(tr, &buf); err != nil {
			t.Fatalf("%s encode: %v", name, err)
		}
		r, err := trace.NewReader(&buf)
		if err != nil {
			t.Fatalf("%s reader: %v", name, err)
		}
		decoded, err := trace.ReadAll(r)
		if err != nil {
			t.Fatalf("%s decode: %v", name, err)
		}
		key, sha, err := Key(decoded, testCal(), core.Options{})
		if err != nil {
			t.Fatalf("%s key: %v", name, err)
		}
		if key != wantKey || sha != wantSHA {
			t.Errorf("%s round-trip changed the key:\n  key %s vs %s\n  sha %s vs %s",
				name, key, wantKey, sha, wantSHA)
		}
	}
}

// TestKeyDiscriminates pins the inputs that MUST produce distinct keys
// (any analysis input that changes the result) and the one that must not
// (the worker count, a pure execution-engine choice).
func TestKeyDiscriminates(t *testing.T) {
	tr := goldenTrace(t)
	cal := testCal()
	base, _, err := Key(tr, cal, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	distinct := map[string]func() (string, error){
		"mode=time": func() (string, error) {
			k, _, err := Key(tr, cal, core.Options{Mode: core.ModeTimeBased})
			return k, err
		},
		"mode=liberal": func() (string, error) {
			k, _, err := Key(tr, cal, core.Options{Mode: core.ModeLiberal,
				Liberal: core.LiberalOptions{Procs: 8, Distance: 1}})
			return k, err
		},
		"repair=1": func() (string, error) {
			k, _, err := Key(tr, cal, core.Options{Repair: true})
			return k, err
		},
		"calibration (event overhead)": func() (string, error) {
			c2 := cal
			c2.Overheads.Event++
			k, _, err := Key(tr, c2, core.Options{})
			return k, err
		},
		"calibration (barrier)": func() (string, error) {
			c2 := cal
			c2.Barrier++
			k, _, err := Key(tr, c2, core.Options{})
			return k, err
		},
		"different trace": func() (string, error) {
			tr2 := tr.Clone()
			tr2.Events[0].Time++
			k, _, err := Key(tr2, cal, core.Options{})
			return k, err
		},
	}
	seen := map[string]string{base: "base"}
	for name, f := range distinct {
		k, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[k] = name
	}

	// Liberal sub-options must discriminate within the liberal mode.
	lib := func(o core.LiberalOptions) string {
		k, _, err := Key(tr, cal, core.Options{Mode: core.ModeLiberal, Liberal: o})
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	if lib(core.LiberalOptions{Procs: 8, Distance: 1}) == lib(core.LiberalOptions{Procs: 8, Distance: 2}) {
		t.Error("liberal distance does not discriminate")
	}

	// Workers is excluded by design: the sharded engine is byte-identical
	// to the default engine at every worker count.
	for _, workers := range []int{-1, 1, 8} {
		k, _, err := Key(tr, cal, core.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if k != base {
			t.Errorf("workers=%d changed the key; worker count must share one entry", workers)
		}
	}
}

// TestKeyGolden pins the key and trace fingerprint of the canonical
// DOACROSS trace under the canonical calibration, so an accidental change
// to the hashing scheme (which would silently invalidate or, worse,
// cross-wire cached results between releases) fails loudly. Regenerate
// with -update after a deliberate scheme change.
func TestKeyGolden(t *testing.T) {
	tr := goldenTrace(t)
	key, sha, err := Key(tr, testCal(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("key %s\ntrace_sha256 %s\n", key, sha)

	path := filepath.Join("testdata", "cache_key.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("cache key drifted from golden:\n%swant:\n%s(regenerate with -update if deliberate)", got, want)
	}
}
