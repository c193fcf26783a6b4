package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/workload"
)

func TestRoundTrip(t *testing.T) {
	reqs := []jobs.Request{
		jobs.InsertReq("a", 0, 64),
		jobs.InsertReq("b", 32, 96),
		jobs.DeleteReq("a"),
	}
	var buf bytes.Buffer
	if err := writeTrace(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	back, err := readTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(reqs) {
		t.Fatalf("round trip length %d", len(back))
	}
	for i := range reqs {
		if back[i] != reqs[i] {
			t.Errorf("request %d: %v != %v", i, back[i], reqs[i])
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := strings.NewReader(`# a comment

{"op":"insert","name":"x","start":0,"end":8}
`)
	reqs, err := readTrace(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 || reqs[0].Name != "x" {
		t.Errorf("got %v", reqs)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := readTrace(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := readTrace(strings.NewReader(`{"op":"explode","name":"x"}` + "\n")); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := readTrace(strings.NewReader(`{"op":"insert","name":"x","start":5,"end":5}` + "\n")); err == nil {
		t.Error("empty window accepted")
	}
	if _, err := readTrace(strings.NewReader(`{"op":"insert","name":"","start":0,"end":1}` + "\n")); err == nil {
		t.Error("nameless accepted")
	}
}

func TestRecordAndReplay(t *testing.T) {
	g, err := workload.NewGenerator(workload.Config{Seed: 5, Gamma: 8, Horizon: 512, Steps: 120})
	if err != nil {
		t.Fatal(err)
	}
	reqs := g.Sequence()

	var buf bytes.Buffer
	n, err := record(core.New(), reqs, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(reqs) {
		t.Fatalf("recorded %d of %d", n, len(reqs))
	}

	events, err := readEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(reqs) {
		t.Fatalf("parsed %d events", len(events))
	}
	// Costs must be annotated.
	if events[0].Reallocs == nil || *events[0].Reallocs < 1 {
		t.Errorf("first insert not annotated: %+v", events[0])
	}

	// Replay against a fresh identical scheduler: costs must match
	// exactly (the scheduler is deterministic).
	if err := replay(core.New(), events); err != nil {
		t.Fatal(err)
	}
}

func TestReplayDetectsMismatch(t *testing.T) {
	var buf bytes.Buffer
	if _, err := record(core.New(), []jobs.Request{jobs.InsertReq("a", 0, 64)}, &buf); err != nil {
		t.Fatal(err)
	}
	events, err := readEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	bogus := 999
	events[0].Reallocs = &bogus
	if err := replay(core.New(), events); err == nil {
		t.Error("cost mismatch not detected")
	}
}

func TestEventRequestDelete(t *testing.T) {
	e := event{Op: "delete", Name: "z"}
	r, err := e.request()
	if err != nil || r.Kind != jobs.Delete || r.Name != "z" {
		t.Errorf("delete round trip: %v %v", r, err)
	}
}
