// The worker role of the simd binary: a stateless executor of (cell,
// rep-range) units. The coordinator role is the job service of main.go
// with the cluster's grid executor.

package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/cluster"
)

// runWorker serves the unit-execution API and, when a coordinator URL
// is given, keeps registering until the handshake succeeds.
func runWorker(listen, coordURL, advertise string, maxInflight int, key []byte) error {
	w := cluster.NewWorker(cluster.WorkerConfig{
		MaxInflight: maxInflight,
		Key:         key,
		Logf:        log.Printf,
	})
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return cli.Resourcef("listening on %s: %v", listen, err)
	}
	if advertise == "" {
		addr, ok := ln.Addr().(*net.TCPAddr)
		if !ok {
			return cli.Usagef("cannot derive -advertise from listener %s; set it explicitly", ln.Addr())
		}
		host := addr.IP.String()
		if addr.IP == nil || addr.IP.IsUnspecified() {
			host = "127.0.0.1"
		}
		advertise = fmt.Sprintf("http://%s", net.JoinHostPort(host, fmt.Sprint(addr.Port)))
	}
	httpSrv := &http.Server{Handler: w.Handler()}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("worker listening on %s (advertising %s)", ln.Addr(), advertise)
		if serr := httpSrv.Serve(ln); !errors.Is(serr, http.ErrServerClosed) {
			errCh <- serr
			return
		}
		errCh <- nil
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if coordURL != "" {
		go func() {
			if rerr := cluster.RegisterLoop(ctx, nil, coordURL, advertise, log.Printf); rerr == nil {
				log.Printf("registered with coordinator %s", coordURL)
			}
		}()
	}

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		log.Printf("shutting down worker")
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return httpSrv.Shutdown(shutCtx)
}
