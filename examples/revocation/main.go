// Revocation demonstrates the tag-lifecycle control plane end to end
// on the live forwarding stack. TACTIC's only native revocation is
// expiry: "a revoked client simply never receives a fresh tag", which
// leaves a window of up to a full tag lifetime in which a compromised
// client keeps being served. The provider's grant ledger closes that
// window:
//
//  1. the provider mints a tag and records the grant in its ledger,
//  2. the client fetches content through edge and core routers,
//  3. the grant is revoked and the new revocation set is pushed to ONE
//     router over a control TLV — the flood carries it to the rest,
//  4. the very next request is denied at the edge, hours before T_e,
//     even though the tag is still validly signed and its bits are
//     still set in every Bloom filter.
//
// The run finishes by reopening the provider from its ledger, showing
// the revocation survives a restart, and by timing the push-to-denial
// revocation latency.
package main

import (
	"crypto/rand"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/forwarder"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	prefix := names.MustParse("/prov0")

	// Provider identity and trust registry. The provider records every
	// grant it mints in an append-only ledger.
	provKey, err := pki.GenerateECDSA(rand.Reader, prefix.MustAppend("KEY", "1"))
	if err != nil {
		return err
	}
	registry := pki.NewRegistry()
	if err := registry.Register(provKey.Locator(), provKey.Public()); err != nil {
		return err
	}
	ledger := filepath.Join(os.TempDir(), fmt.Sprintf("tactic-revocation-%d.ledger", os.Getpid()))
	defer os.Remove(ledger)
	provider, err := core.NewProvider(prefix, provKey, time.Hour, rand.Reader)
	if err != nil {
		return err
	}
	if err := provider.OpenLedger(ledger); err != nil {
		return err
	}

	// A three-node live deployment on loopback TCP:
	// client —— edge-0 —— core-0 —— producer.
	producer, err := forwarder.NewProducer(provider, registry, nil)
	if err != nil {
		return err
	}
	defer producer.Close()
	if _, err := producer.PublishObject("report", 2, []byte("quarterly numbers, confidential"), 1024); err != nil {
		return err
	}
	prodAddr, err := listen(producer.ServeFaces)
	if err != nil {
		return err
	}

	coreFwd, err := forwarder.New(forwarder.Config{ID: "core-0", Role: forwarder.RoleCore, Registry: registry, Seed: 1})
	if err != nil {
		return err
	}
	defer coreFwd.Close()
	coreAddr, err := listen(coreFwd.ServeFaces)
	if err != nil {
		return err
	}
	up, err := coreFwd.DialUpstream(prodAddr)
	if err != nil {
		return err
	}
	coreFwd.AddRoute(prefix, up)

	edgeFwd, err := forwarder.New(forwarder.Config{
		ID: "edge-0", Role: forwarder.RoleEdge, Registry: registry, Seed: 2,
		Tactic: core.Config{EdgeValidateOnMiss: true},
	})
	if err != nil {
		return err
	}
	defer edgeFwd.Close()
	edgeAddr, err := listen(edgeFwd.ServeFaces)
	if err != nil {
		return err
	}
	edgeUp, err := edgeFwd.DialUpstream(coreAddr)
	if err != nil {
		return err
	}
	edgeFwd.AddRoute(prefix, edgeUp)

	// 1. Issue. The grant's T_e is an hour away: under expiry-only
	// TACTIC the client would stay authorized that whole time.
	expiry := time.Now().Add(time.Hour)
	tag, err := provider.Issue(names.MustParse("/users/mallory/KEY/1"), 3,
		core.EmptyAccessPath.Accumulate("edge-0"), expiry)
	if err != nil {
		return err
	}
	fmt.Printf("issued  grant %s (AL 3, T_e in %s), ledger %s\n",
		tag.ID().Short(), time.Until(expiry).Round(time.Minute), filepath.Base(ledger))
	fmt.Printf("        outstanding grants: %d\n\n", provider.Outstanding())

	// 2. Fetch: validated once at the edge, served end to end.
	client, err := dialClient(edgeAddr)
	if err != nil {
		return err
	}
	defer client.Close()
	name := prefix.MustAppend("report", "chunk0")
	if d, err := fetch(client, name, tag, 1); err != nil {
		return err
	} else if d.Nack || d.Content == nil {
		return fmt.Errorf("pre-revocation fetch denied unexpectedly")
	}
	fmt.Printf("fetch   %s served (tag verified at edge, now cached in its BF)\n\n", name)

	// 3. Revoke and push to the edge only; the control flood carries the
	// set to the core router too.
	if _, err := provider.Revoke(tag.ID()); err != nil {
		return err
	}
	version, ids := provider.Revocations(time.Now())
	pushed := time.Now()
	pusher, err := dialClient(edgeAddr)
	if err != nil {
		return err
	}
	defer pusher.Close()
	if err := pusher.SendControl(&ndn.Control{
		Kind: ndn.CtrlRevoke, Version: version, Origin: "lifecycle-svc",
		Revoked: ids,
	}); err != nil {
		return err
	}
	for !edgeFwd.Tactic().Revocations().Contains(tag.ID()) ||
		!coreFwd.Tactic().Revocations().Contains(tag.ID()) {
		time.Sleep(time.Millisecond)
	}
	latency := time.Since(pushed)
	fmt.Printf("revoke  grant %s, set v%d pushed to edge-0 only\n", tag.ID().Short(), version)
	fmt.Printf("        flood reached every router in %s\n\n", latency.Round(100*time.Microsecond))

	// 4. The same still-signed, still-unexpired, still-BF-cached tag is
	// now denied at the edge.
	if d, err := fetch(client, prefix.MustAppend("report", "chunk1"), tag, 2); err != nil {
		return err
	} else if !d.Nack {
		return fmt.Errorf("revoked tag was served")
	}
	fmt.Printf("denied  next request NACKed at the edge — %s before T_e would have\n",
		time.Until(expiry).Round(time.Minute))
	fmt.Printf("        (expiry-only TACTIC serves this tag until T_e; the explicit set closes the window)\n\n")

	// 5. The ledger is durable: a restarted provider still refuses the
	// grant and still carries the revocation set.
	if err := provider.Close(); err != nil {
		return err
	}
	restarted, err := core.NewProvider(prefix, provKey, time.Hour, rand.Reader)
	if err != nil {
		return err
	}
	if err := restarted.OpenLedger(ledger); err != nil {
		return err
	}
	defer restarted.Close()
	rec, ok := restarted.Lookup(tag.ID())
	if !ok {
		return fmt.Errorf("grant lost across restart")
	}
	version, ids = restarted.Revocations(time.Now())
	fmt.Printf("restart service reopened from ledger: grant %s status=%s, set v%d with %d entry\n",
		tag.ID().Short(), rec.Status, version, len(ids))
	fmt.Println("\nrevocation cost: one control frame per push, one exact-set lookup per request —")
	fmt.Println("no re-encryption, no key redistribution, no waiting out the tag TTL.")
	return nil
}

// listen serves on an ephemeral loopback listener.
func listen(serve func(transport.FaceListener) error) (string, error) {
	ln, err := transport.ListenFace("127.0.0.1:0", transport.UDPOptions{})
	if err != nil {
		return "", err
	}
	go serve(ln) //nolint:errcheck // exits on close
	return ln.Addr().String(), nil
}

// dialClient opens a client transport connection to a forwarder.
func dialClient(addr string) (*transport.Conn, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return transport.New(raw), nil
}

// fetch requests one chunk with a tag and returns the response,
// skipping any flooded control frames arriving on the same face.
func fetch(conn *transport.Conn, name names.Name, tag *core.Tag, nonce uint64) (*ndn.Data, error) {
	if err := conn.SendInterest(&ndn.Interest{Name: name, Kind: ndn.KindContent, Nonce: nonce, Tag: tag}); err != nil {
		return nil, err
	}
	for {
		pkt, err := conn.Receive()
		if err != nil {
			return nil, err
		}
		if pkt.Data != nil {
			return pkt.Data, nil
		}
	}
}
