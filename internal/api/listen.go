package api

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Listener is the serving listener of ibserve and ibrouter and its
// shutdown protocol.
type Listener struct {
	Addr    string
	Handler http.Handler
	// Ready flips to not-ready when shutdown begins.
	Ready *Readiness
	// DrainWait is how long to keep serving with /readyz at 503 before
	// draining, so routers and load balancers stop sending first.
	DrainWait time.Duration
	// Grace bounds the connection drain.
	Grace  time.Duration
	Logger *slog.Logger
}

// Serve listens on Addr, announces the bound address on stdout ("serving on
// ADDR", which scripts and tests scrape) and serves until SIGINT or SIGTERM.
// Then it flips Ready, keeps answering for DrainWait, and drains
// connections within Grace. It returns nil after a clean drain and the
// listen or serve error otherwise.
func (l Listener) Serve() error {
	ln, err := net.Listen("tcp", l.Addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving on %s\n", ln.Addr())
	l.Logger.Info("listening", "addr", ln.Addr().String())

	// Hardened listener settings: slow-header and idle connections cannot pin
	// resources forever, and oversized headers are rejected at the HTTP layer.
	srv := &http.Server{
		Handler:           l.Handler,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		l.Ready.SetReady(false)
		l.Logger.Info("shutting down", "drain_wait", l.DrainWait.String(), "grace", l.Grace.String())
		if l.DrainWait > 0 {
			time.Sleep(l.DrainWait)
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), l.Grace)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			l.Logger.Error("shutdown: " + err.Error())
		}
	}()
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-done
	l.Logger.Info("drained and stopped")
	return nil
}
