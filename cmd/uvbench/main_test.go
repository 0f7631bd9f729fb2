package main

import (
	"os"
	"strings"
	"testing"

	"uvdiagram/internal/exp"
)

// TestDocListsRegistry keeps the one hand-written experiment list —
// the usage line of the command's doc comment — equal to the registry.
func TestDocListsRegistry(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	want := "uvbench [-exp " + strings.Join(exp.Names(), "|") + "]"
	if !strings.Contains(string(src), want) {
		t.Errorf("doc comment of main.go does not contain %q", want)
	}
}
