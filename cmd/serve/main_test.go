package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/synth"
)

// TestIndexKeepsRecordedPartition: without -shards, serve -index serves
// an image with the shard partition buildindex recorded in it, and a
// world built at startup gets one shard.
func TestIndexKeepsRecordedPartition(t *testing.T) {
	docs := synth.GenerateTestbed(synth.CorpusSpec{Seed: 1, NumTopics: 2}).Docs
	built, err := engine.Build(docs, engine.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.ridx7")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := built.WriteMappedTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for _, mmap := range []bool{false, true} {
		args := []string{"-index", path}
		if mmap {
			args = append(args, "-mmap")
		}
		c, err := parseFlags(args)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := c.openIndex()
		if err != nil {
			t.Fatal(err)
		}
		if got := eng.Segments().NumShards(); got != 2 {
			t.Errorf("serve %v: %d shards, want the image's 2", args, got)
		}
		eng.Close()
	}

	c, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := engine.Build(docs, c.engine())
	if err != nil {
		t.Fatal(err)
	}
	if got := fresh.Segments().NumShards(); got != 1 {
		t.Errorf("built world: %d shards, want 1", got)
	}
}
