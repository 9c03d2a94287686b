package main

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// outputSHA256 pins the SHA-256 of the example's whole stdout.
const outputSHA256 = "aa5f068ba7c13344c138b0e18caf67a514a946168c1a0d4d3b9c1efb2c997e77"

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
