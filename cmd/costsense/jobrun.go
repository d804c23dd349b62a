package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"costsense/internal/serve"
)

// runJobrun runs `costsense jobrun`: a resilient one-shot client for a
// running experiment server. It submits one spec (from -spec or
// stdin), follows the job's NDJSON progress stream on stderr, and
// writes the result JSON to stdout. The client rides out backpressure
// (429 + Retry-After), drains and crash-restarts: a dropped stream is
// resumed from its ?from= offset, so a server killed mid-sweep and
// restarted with the same -journal finishes the job and this command
// still exits with its byte-exact result. Exit is nonzero when the
// job fails (the typed reason is printed) or the server stays gone.
func runJobrun(args []string) error {
	fs := flag.NewFlagSet("costsense jobrun", flag.ContinueOnError)
	base := fs.String("server", "http://localhost:8080", "experiment server base `url`")
	specPath := fs.String("spec", "-", "spec JSON `file` (- = stdin)")
	quiet := fs.Bool("quiet", false, "suppress the progress stream on stderr")
	fs.SetOutput(os.Stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("jobrun takes no positional arguments (got %q)", fs.Args())
	}

	var in io.Reader = os.Stdin
	if *specPath != "-" {
		f, err := os.Open(*specPath)
		if err != nil {
			return err
		}
		defer f.Close() //costsense:err-ok read-only handle, fully consumed below
		in = f
	}
	var spec serve.Spec
	dec := json.NewDecoder(in)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return fmt.Errorf("jobrun: decoding spec: %w", err)
	}

	//costsense:ctx-ok process root: SIGINT/SIGTERM are the cancellation source for the client below
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	c := &serve.Client{Base: *base}
	var progress io.Writer = os.Stderr
	if *quiet {
		progress = nil
	}
	st, result, err := c.Run(ctx, spec, progress)
	if errors.Is(err, serve.ErrResultEvicted) {
		return fmt.Errorf("jobrun: %w\nhint: run jobrun again with the same spec — results are a pure function of the spec, so the rerun returns the same bytes; the server's -results-mb sets how long results are kept", err)
	}
	if err != nil {
		return fmt.Errorf("jobrun: %w", err)
	}
	if st.State != "done" {
		return fmt.Errorf("jobrun: job %s failed (reason=%s): %s", st.ID, st.Reason, st.Error)
	}
	if _, err := os.Stdout.Write(result); err != nil {
		return fmt.Errorf("jobrun: writing result: %w", err)
	}
	return nil
}
