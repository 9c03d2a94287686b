package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.sha256")

// quickPins holds one `sha256sum` line per file `figures -quick` writes,
// so `sha256sum -c` can check an -out directory by hand as well.
const quickPins = "testdata/quick.sha256"

// TestQuickPins regenerates every figure at -quick and compares each
// output file's SHA-256 with its pin. A change that moves any paper
// figure, ablation or summary number fails here and names the file.
func TestQuickPins(t *testing.T) {
	dir := t.TempDir()
	var stdout strings.Builder
	if err := run([]string{"-quick", "-out", dir}, &stdout); err != nil {
		t.Fatal(err)
	}
	summary, err := os.ReadFile(filepath.Join(dir, "summary.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if stdout.String() != string(summary) {
		t.Errorf("stdout differs from summary.txt:\n%s", stdout.String())
	}

	got := map[string]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		got[e.Name()] = hex.EncodeToString(sum[:])
	}

	if *update {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var sb strings.Builder
		for _, name := range names {
			fmt.Fprintf(&sb, "%s  %s\n", got[name], name)
		}
		if err := os.WriteFile(quickPins, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	want := readPins(t)
	for name, sum := range want {
		switch g, ok := got[name]; {
		case !ok:
			t.Errorf("%s: not written", name)
		case g != sum:
			t.Errorf("%s: sha256 %s, pinned %s", name, g, sum)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: written but not pinned", name)
		}
	}
}

func readPins(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(quickPins)
	if err != nil {
		t.Fatalf("read pins (run with -update to regenerate): %v", err)
	}
	defer f.Close()
	pins := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", quickPins, sc.Text())
		}
		pins[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pins
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "8", "-out", t.TempDir()},
		{"-nosuchflag"},
		{"-seed", "x"},
	} {
		if err := run(args, &strings.Builder{}); err == nil {
			t.Errorf("run(%q) accepted", args)
		}
	}
}

// TestUnknownFigureCreatesNoDirectory: an unknown -fig is rejected before
// -out is created, so a failed run leaves nothing behind.
func TestUnknownFigureCreatesNoDirectory(t *testing.T) {
	out := filepath.Join(t.TempDir(), "figs")
	if err := run([]string{"-fig", "8", "-out", out}, &strings.Builder{}); err == nil {
		t.Fatal("run(-fig 8) accepted")
	}
	if _, err := os.Stat(out); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("-out %s after a rejected -fig: Stat error %v, want not-exist", out, err)
	}
}
