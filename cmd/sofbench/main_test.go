package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"
)

// TestFiguresMatchGolden holds `sofbench -fig all -window 5s -seed 1` to
// the output checked in beside it. The simulator is deterministic, so a
// figure that moves is a change to the ordering behaviour and is made on
// purpose, by regenerating the file:
//
//	go run ./cmd/sofbench -fig all -window 5s -seed 1 > cmd/sofbench/testdata/figures-w5s-seed1.txt
func TestFiguresMatchGolden(t *testing.T) {
	const golden = "testdata/figures-w5s-seed1.txt"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if !runFigures(&got, "all", 2, 5*time.Second, 1) {
		t.Fatal("figure \"all\" unknown")
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got: %q\nwant: %q", golden, i+1, g, w)
		}
	}
}
