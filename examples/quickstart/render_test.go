package main

import (
	"bytes"
	"strings"
	"testing"

	realloc "repro"
)

func win(start, end int64) realloc.Window { return realloc.Window{Start: start, End: end} }

func TestRenderBasic(t *testing.T) {
	js := []realloc.Job{
		{Name: "alpha", Window: win(0, 4)},
		{Name: "beta", Window: win(2, 6)},
	}
	asn := realloc.Assignment{
		"alpha": {Machine: 0, Slot: 1},
		"beta":  {Machine: 1, Slot: 3},
	}
	var buf bytes.Buffer
	if err := render(&buf, js, asn, 2, renderOptions{From: 0, To: 6}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"slots [0, 6)",
		"machine 0 |.a....|",
		"machine 1 |...b..|",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRenderWindows(t *testing.T) {
	js := []realloc.Job{{Name: "a", Window: win(1, 5)}}
	asn := realloc.Assignment{"a": {Machine: 0, Slot: 2}}
	var buf bytes.Buffer
	if err := render(&buf, js, asn, 1, renderOptions{From: 0, To: 6, ShowWindows: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "|.-a--.|") && !strings.Contains(out, "|.-a-- |") {
		// window row: dashes over [1,5), glyph at slot 2
		if !strings.Contains(out, "a--") {
			t.Errorf("window row missing:\n%s", out)
		}
	}
	if !strings.Contains(out, "[1,5)") {
		t.Errorf("window annotation missing:\n%s", out)
	}
}

func TestRenderAutoRange(t *testing.T) {
	asn := realloc.Assignment{
		"x": {Machine: 0, Slot: 10},
		"y": {Machine: 0, Slot: 14},
	}
	var buf bytes.Buffer
	if err := render(&buf, nil, asn, 1, renderOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "slots [10, 15)") {
		t.Errorf("auto range wrong:\n%s", buf.String())
	}
}

func TestRenderClipping(t *testing.T) {
	asn := realloc.Assignment{"a": {Machine: 0, Slot: 0}, "z": {Machine: 0, Slot: 1000}}
	var buf bytes.Buffer
	if err := render(&buf, nil, asn, 1, renderOptions{MaxWidth: 20}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(clipped)") {
		t.Errorf("clip marker missing:\n%s", buf.String())
	}
}

func TestRenderCollision(t *testing.T) {
	asn := realloc.Assignment{
		"a": {Machine: 0, Slot: 0},
		"b": {Machine: 0, Slot: 0},
	}
	var buf bytes.Buffer
	if err := render(&buf, nil, asn, 1, renderOptions{From: 0, To: 2}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "#") {
		t.Errorf("collision glyph missing:\n%s", buf.String())
	}
}

func TestRenderErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := render(&buf, nil, nil, 0, renderOptions{}); err == nil {
		t.Error("0 machines accepted")
	}
	if err := render(&buf, nil, realloc.Assignment{}, 1, renderOptions{From: 5, To: 5}); err == nil {
		t.Error("empty explicit range accepted")
	}
}

func TestRenderEmptyAssignment(t *testing.T) {
	var buf bytes.Buffer
	if err := render(&buf, nil, realloc.Assignment{}, 1, renderOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "machine 0 |.|") {
		t.Errorf("empty render wrong:\n%s", buf.String())
	}
}

func TestClipName(t *testing.T) {
	if clipName("short", 9) != "short" {
		t.Error("short name altered")
	}
	if got := clipName("averylongjobname", 9); len(got) != 9 || !strings.HasSuffix(got, "~") {
		t.Errorf("clipName = %q", got)
	}
}
