// Command topics-serve exposes the synthetic web on a TCP listener:
// every hostname of the world is virtual-hosted behind one address, so a
// crawler (topics-crawl -connect) or a plain curl with a Host header can
// browse it.
//
//	topics-serve -seed 1 -sites 50000 -addr :8080
//	curl -H 'Host: criteo.com' http://localhost:8080/.well-known/privacy-sandbox-attestations.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/netmeasure/topicscope"
)

func main() {
	var (
		seed      = flag.Uint64("seed", 1, "world seed")
		sites     = flag.Int("sites", 50000, "number of ranked sites")
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address")
		useTLS    = flag.Bool("tls", false, "serve HTTPS with per-host certificates from an in-memory CA")
		caOut     = flag.String("ca-cert", "topicscope-ca.pem", "with -tls: write the CA certificate PEM here for crawlers to trust")
		useChaos  = flag.Bool("chaos", false, "inject the paper-calibrated fault profile (5xx, resets, truncation, hard-down hosts)")
		chaosSeed = flag.Uint64("chaos-seed", 1, "fault-injection seed (independent of the world seed)")
		pprofAddr = flag.String("pprof", "", "also serve net/http/pprof and /__metrics on this address (e.g. 127.0.0.1:6060)")
	)
	flag.Parse()

	world := topicscope.GenerateWorld(topicscope.WorldConfig{Seed: *seed, NumSites: *sites})

	server := topicscope.NewServer(world, nil)

	var chaosStats *topicscope.ChaosStats
	var handler http.Handler = server
	if *useChaos {
		ch := topicscope.NewChaosHandler(topicscope.DefaultChaos(*chaosSeed), server)
		chaosStats = ch.Stats()
		handler = ch
		fmt.Printf("chaos enabled (seed %d)\n", *chaosSeed)
	}
	if *pprofAddr != "" {
		dbg, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("pprof on http://%s/debug/pprof/\n", dbg.Addr())
		go func() {
			srv := &http.Server{Handler: topicscope.DebugMux(nil), ReadHeaderTimeout: 10 * time.Second}
			srv.Serve(dbg) //nolint:errcheck // best-effort debug endpoint
		}()
	}

	// The metrics endpoint sits in front of the injector so scrapes are
	// never fault-injected.
	metrics := topicscope.MetricsHandler(server, chaosStats, nil)
	root := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == topicscope.MetricsPath {
			metrics.ServeHTTP(w, r)
			return
		}
		handler.ServeHTTP(w, r)
	})

	var ln net.Listener
	var err error
	if *useTLS {
		var ca *topicscope.CertAuthority
		ln, ca, err = server.ListenTLS(*addr)
		if err != nil {
			fatal(err)
		}
		err = topicscope.WriteFileAtomic(*caOut, func(w io.Writer) error {
			_, werr := w.Write(ca.CertPEM())
			return werr
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("serving %s on https://%s (CA cert: %s)\n", world.Stats(), ln.Addr(), *caOut)
	} else {
		ln, err = net.Listen("tcp", *addr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("serving %s on %s\n", world.Stats(), ln.Addr())
		fmt.Printf("example: curl -H 'Host: %s' http://%s/\n", world.Sites[0].Domain, ln.Addr())
	}

	hs := &http.Server{
		Handler:           root,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(shutdownCtx) //nolint:errcheck // best-effort drain
	}()
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	fmt.Println(server.Metrics())
	if chaosStats != nil {
		fmt.Println(chaosStats.Snapshot())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "topics-serve:", err)
	os.Exit(1)
}
