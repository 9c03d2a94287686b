package main

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// outputSHA256 pins the SHA-256 of the example's whole stdout.
const outputSHA256 = "6eaa12f2affc0bf067622cfba5df334b0aad8250f2a65165684c36ae23d3a5f8"

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
