package main

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// outputSHA256 pins the SHA-256 of the example's whole stdout.
const outputSHA256 = "be8736aea2d719f41fd9822c08b3d6f3ffb14918b134ef5aba0d736f0ed2a832"

// TestOutputDeterministic replays the example and checks its stdout
// against the pin, so a change that moves any printed number fails here.
// A change that moves the output on purpose re-pins it and says why.
func TestOutputDeterministic(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(out.String()))
	if got := hex.EncodeToString(sum[:]); got != outputSHA256 {
		t.Errorf("stdout SHA-256 %s, pinned %s; output:\n%s", got, outputSHA256, out.String())
	}
}
