// Command topics-world generates the deterministic synthetic web and
// writes its Tranco-style rank list, the browser allow-list database and
// a summary of the world's composition.
//
// Usage:
//
//	topics-world -seed 1 -sites 50000 -list tranco.csv -allowlist privacy-sandbox-attestations.dat
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/netmeasure/topicscope"
	"github.com/netmeasure/topicscope/internal/campaign"
)

func main() {
	var (
		seed      = flag.Uint64("seed", 1, "world seed (same seed ⇒ identical world)")
		sites     = flag.Int("sites", 50000, "number of ranked sites")
		listPath  = flag.String("list", "", "write the Tranco-style rank list CSV here")
		allowPath = flag.String("allowlist", "", "write the allow-list .dat database here")
		corrupt   = flag.Bool("corrupt", false, "corrupt the written allow-list (the paper's crawl configuration, §2.3)")
		specPath  = flag.String("spec", "", "write the full world spec JSON here")
	)
	flag.Parse()

	world := topicscope.GenerateWorld(topicscope.WorldConfig{Seed: *seed, NumSites: *sites})
	fmt.Printf("world: %s\n", world.Stats())

	if *listPath != "" {
		if err := world.List().SaveFile(*listPath); err != nil {
			fatal(err)
		}
		fmt.Printf("rank list: %s (%d entries)\n", *listPath, world.List().Len())
	}
	if *specPath != "" {
		err := topicscope.WriteFileAtomic(*specPath, func(w io.Writer) error {
			return topicscope.SaveWorld(world, w)
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("world spec: %s\n", *specPath)
	}
	if *allowPath != "" {
		if err := writeAllowlist(world, *allowPath, *corrupt); err != nil {
			fatal(err)
		}
		state := "healthy"
		if *corrupt {
			state = "CORRUPTED (browser will default-allow every caller)"
		}
		fmt.Printf("allow-list: %s (%s)\n", *allowPath, state)
	}
}

func writeAllowlist(world *topicscope.World, path string, corrupt bool) error {
	list := campaign.Allowlist(world)
	var buf bytes.Buffer
	if _, err := list.WriteTo(&buf); err != nil {
		return err
	}
	raw := buf.Bytes()
	if corrupt {
		// Flip one byte mid-file, as the paper did on purpose.
		raw[len(raw)/2] ^= 0xFF
	}
	return topicscope.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "topics-world:", err)
	os.Exit(1)
}
