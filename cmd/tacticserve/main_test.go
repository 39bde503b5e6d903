package main

import (
	"bytes"
	"crypto/rand"
	"errors"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/forwarder"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/transport"
)

// TestServeFetchStop runs the command end to end: publish a file, enroll
// a client, fetch the object back over a real face, then stop the server
// by closing its listener — with the client still connected — and
// require every goroutine it started to be gone.
func TestServeFetchStop(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		return path
	}
	provKey, err := pki.GenerateECDSA(rand.Reader, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	provPEM, err := pki.MarshalECDSAPrivate(provKey)
	if err != nil {
		t.Fatal(err)
	}
	aliceKey, err := pki.GenerateECDSA(rand.Reader, names.MustParse("/users/alice/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	alicePEM, err := pki.MarshalPublic(aliceKey.Locator(), aliceKey.Public())
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("tactic!"), 500) // 3.5 KB, 4 chunks
	args := []string{"-listen", "127.0.0.1:0", "-prefix", "/prov0", "-key", write("prov0.key", provPEM),
		"-publish", "report=" + write("report.bin", payload), "-level", "2",
		"-enroll", write("alice.pub", alicePEM) + "=3"}

	base := runtime.NumGoroutine()
	up := make(chan transport.FaceListener, 1)
	done := make(chan error, 1)
	go func() { done <- run(args, func(ln transport.FaceListener) { up <- ln }) }()
	var ln transport.FaceListener
	select {
	case ln = <-up:
	case err := <-done:
		t.Fatalf("run returned before listening: %v", err)
	}

	identity, err := core.NewClient(aliceKey, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	client, err := forwarder.Dial(ln.Addr().String(), identity, "alice", "edge-0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	got, chunks, err := client.FetchObject(names.MustParse("/prov0/report"), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if chunks != 4 || !bytes.Equal(got, payload) {
		t.Errorf("fetched %d bytes in %d chunks, want the %d published in 4", len(got), chunks, len(payload))
	}

	ln.Close()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("run stopped with %v, want the listener's close", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("run still serving 2 s after its listener closed")
	}
	client.Close()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{},                // missing -prefix and -key
		{"-prefix", "/p"}, // missing -key
		{"-prefix", "/p", "-key", "/nonexistent/prov.key"},
	} {
		if err := run(args, nil); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}
}
