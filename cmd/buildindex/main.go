// Command buildindex builds a search engine over a corpus and persists it
// as one RIDX7 index image — postings, shard partition, max-score tables,
// raw bodies and forward index in wire shape at aligned offsets — so
// serving tools open it without re-analyzing the collection. Without
// -corpus it indexes a synthetic testbed; with -corpus it reads documents
// from a TSV file of "id<TAB>title<TAB>body" lines.
//
//	buildindex -o index.ridx7 -topics 20
//	buildindex -o index.ridx7 -corpus docs.tsv
//	buildindex -o index.ridx7 -shards 4      # record a 4-segment partition
//
// `serve -index index.ridx7 -mmap` (and the shard workers behind
// scripts/failover.sh) serve the image straight off the page cache, over
// the partition it records; without -mmap serve reads it onto a heap slab
// and serves it the same way.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/engine"
	"repro/internal/synth"
)

func main() {
	out := flag.String("o", "index.ridx7", "output file")
	corpus := flag.String("corpus", "", "TSV corpus file (id<TAB>title<TAB>body); empty = synthetic")
	world := cli.World{Seed: 1, Topics: 20} // the synthetic testbed when -corpus is empty
	world.Register(flag.CommandLine)
	shards := flag.Int("shards", 1, "index segments recorded in the shard manifest (serving fans retrieval out over them)")
	flag.Parse()

	var docs []engine.Document
	if *corpus == "" {
		docs = synth.GenerateTestbed(world.Corpus()).Docs
	} else {
		f, err := os.Open(*corpus)
		if err != nil {
			fmt.Fprintln(os.Stderr, "buildindex:", err)
			os.Exit(1)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
		lineNo := 0
		for sc.Scan() {
			lineNo++
			line := sc.Text()
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			fields := strings.SplitN(line, "\t", 3)
			if len(fields) != 3 {
				fmt.Fprintf(os.Stderr, "buildindex: line %d: want 3 tab-separated fields\n", lineNo)
				os.Exit(1)
			}
			docs = append(docs, engine.Document{ID: fields[0], Title: fields[1], Body: fields[2]})
		}
		if err := sc.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "buildindex:", err)
			os.Exit(1)
		}
	}

	eng, err := engine.Build(docs, engine.Config{Shards: *shards})
	if err != nil {
		fmt.Fprintln(os.Stderr, "buildindex:", err)
		os.Exit(1)
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "buildindex:", err)
		os.Exit(1)
	}
	defer f.Close()
	size, err := eng.WriteMappedTo(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "buildindex:", err)
		os.Exit(1)
	}
	storage := eng.Index().Storage()
	fmt.Fprintf(os.Stderr, "indexed %d documents (%d terms, %d shards, %d max-score tables, %d-posting blocks, %.2f B/posting) -> %s (%.2f MiB)\n",
		eng.NumDocs(), eng.Index().NumTerms(), eng.Segments().NumShards(),
		len(eng.Index().MaxScoreKeys()), storage.BlockSize, storage.BytesPerPosting, *out, float64(size)/(1<<20))
}
