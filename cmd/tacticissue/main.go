// Command tacticissue is the operator's side of a provider's grant
// ledger: it replays the ledger into a core.Provider (OpenLedger), the
// one issuer that also answers registrations, mints, renews and revokes
// tags through it, and pushes revocation-set and epoch-rotation control
// frames to running forwarders. A push carries the revoked grants whose
// T_e has not passed: past it a tag is denied by its expiry. Each run
// appends to the ledger and exits; a running origin (tacticd -role
// producer) keeps its grants in memory, so its registration tags are not
// in this file.
//
//	tacticissue issue  -ledger prov0.ledger -key prov0.key \
//	                   -client /users/alice/KEY/1 -level 2 -ap e0 -ttl 30s -out alice.tag
//	tacticissue issue  -ledger prov0.ledger -key prov0.key \
//	                   -client /users/bob/KEY/1 -level 2 -roam -ttl 30s
//	tacticissue renew  -ledger prov0.ledger -key prov0.key -id <hex> -ttl 30s
//	tacticissue revoke -ledger prov0.ledger -id <hex>
//	tacticissue list   -ledger prov0.ledger
//	tacticissue push   -ledger prov0.ledger -to :7100 -to :7101 -epoch 2
package main

import (
	"crypto/rand"
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tacticissue:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: tacticissue issue|renew|revoke|list|push [flags]")
	}
	switch args[0] {
	case "issue":
		return runIssue(args[1:])
	case "renew":
		return runRenew(args[1:])
	case "revoke":
		return runRevoke(args[1:])
	case "list":
		return runList(args[1:])
	case "push":
		return runPush(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want issue|renew|revoke|list|push)", args[0])
	}
}

// multiFlag collects repeated string flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// openProvider replays the ledger into a provider signing with the key
// at keyPath. Subcommands that never mint a tag (revoke, list, push) pass
// keyPath == "" and get a throwaway signer: the ledger records grants,
// not signatures, so replay does not need the real key. The provider's
// registration TTL goes unused: Issue and Renew take each tag's expiry.
func openProvider(ledger, keyPath string) (*core.Provider, error) {
	if ledger == "" {
		return nil, fmt.Errorf("-ledger is required")
	}
	var signer pki.Signer
	if keyPath == "" {
		kp, err := pki.GenerateFast(rand.Reader, names.MustParse("/tacticissue/KEY/1"))
		if err != nil {
			return nil, err
		}
		signer = kp
	} else {
		keyPEM, err := os.ReadFile(keyPath)
		if err != nil {
			return nil, err
		}
		signer, err = pki.UnmarshalECDSAPrivate(keyPEM, rand.Reader)
		if err != nil {
			return nil, err
		}
	}
	p, err := core.NewProvider(signer.Locator().ProviderPrefix(), signer, time.Hour, rand.Reader)
	if err != nil {
		return nil, err
	}
	if err := p.OpenLedger(ledger); err != nil {
		return nil, err
	}
	return p, nil
}

func runIssue(args []string) error {
	fs := flag.NewFlagSet("tacticissue issue", flag.ContinueOnError)
	ledger := fs.String("ledger", "", "grant ledger path")
	keyPath := fs.String("key", "", "provider private key PEM (tactickey gen)")
	client := fs.String("client", "", "client key locator Pub_u, e.g. /users/alice/KEY/1")
	level := fs.Int("level", 1, "access level AL_u")
	apList := fs.String("ap", "", "comma-separated access-path entity IDs, e.g. e0,relay1")
	roam := fs.Bool("roam", false, "mint a roaming tag (AP wildcard: valid from any edge)")
	ttl := fs.Duration("ttl", 30*time.Second, "tag validity period")
	out := fs.String("out", "", "write the encoded tag to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *keyPath == "" || *client == "" {
		return fmt.Errorf("-key and -client are required")
	}
	clientKey, err := names.Parse(*client)
	if err != nil {
		return err
	}
	ap := core.AccessPath(0)
	switch {
	case *roam && *apList != "":
		return fmt.Errorf("-roam and -ap are mutually exclusive")
	case *roam:
		ap = core.AccessPathAny
	case *apList != "":
		ap = core.AccessPathOf(strings.Split(*apList, ",")...)
	}
	p, err := openProvider(*ledger, *keyPath)
	if err != nil {
		return err
	}
	defer p.Close()
	tag, err := p.Issue(clientKey, core.AccessLevel(*level), ap, time.Now().Add(*ttl))
	if err != nil {
		return err
	}
	if *out != "" {
		if err := os.WriteFile(*out, tag.Encode(), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("issued %s\n  client %s level %d ap %016x expiry %s\n",
		tag.ID(), clientKey, *level, uint64(ap), tag.Expiry.Format(time.RFC3339))
	return nil
}

func runRenew(args []string) error {
	fs := flag.NewFlagSet("tacticissue renew", flag.ContinueOnError)
	ledger := fs.String("ledger", "", "grant ledger path")
	keyPath := fs.String("key", "", "provider private key PEM")
	id := fs.String("id", "", "grant ID to renew (hex)")
	ttl := fs.Duration("ttl", 30*time.Second, "successor tag validity period")
	out := fs.String("out", "", "write the encoded successor tag to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *keyPath == "" || *id == "" {
		return fmt.Errorf("-key and -id are required")
	}
	tagID, err := core.ParseTagID(*id)
	if err != nil {
		return err
	}
	p, err := openProvider(*ledger, *keyPath)
	if err != nil {
		return err
	}
	defer p.Close()
	tag, err := p.Renew(tagID, time.Now().Add(*ttl))
	if err != nil {
		return err
	}
	if *out != "" {
		if err := os.WriteFile(*out, tag.Encode(), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("renewed %s -> %s expiry %s\n", tagID, tag.ID(), tag.Expiry.Format(time.RFC3339))
	return nil
}

func runRevoke(args []string) error {
	fs := flag.NewFlagSet("tacticissue revoke", flag.ContinueOnError)
	ledger := fs.String("ledger", "", "grant ledger path")
	var ids multiFlag
	fs.Var(&ids, "id", "grant ID to revoke (hex, repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(ids) == 0 {
		return fmt.Errorf("at least one -id is required")
	}
	p, err := openProvider(*ledger, "")
	if err != nil {
		return err
	}
	defer p.Close()
	var version uint64
	for _, raw := range ids {
		id, err := core.ParseTagID(raw)
		if err != nil {
			return err
		}
		if version, err = p.Revoke(id); err != nil {
			return err
		}
		fmt.Printf("revoked %s\n", id)
	}
	_, live := p.Revocations(time.Now())
	fmt.Printf("revocation set: version %d, %d entries (push with: tacticissue push)\n",
		version, len(live))
	return nil
}

func runList(args []string) error {
	fs := flag.NewFlagSet("tacticissue list", flag.ContinueOnError)
	ledger := fs.String("ledger", "", "grant ledger path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := openProvider(*ledger, "")
	if err != nil {
		return err
	}
	defer p.Close()
	recs := p.Records()
	sort.Slice(recs, func(i, j int) bool {
		if !recs[i].Expiry.Equal(recs[j].Expiry) {
			return recs[i].Expiry.Before(recs[j].Expiry)
		}
		return recs[i].ID.String() < recs[j].ID.String()
	})
	for _, r := range recs {
		fmt.Printf("%s %-7s %s level %d ap %016x expiry %s\n",
			r.ID, r.Status, r.ClientKey, r.Level, uint64(r.AccessPath), r.Expiry.Format(time.RFC3339))
	}
	v, revoked := p.Revocations(time.Now())
	fmt.Printf("%d grants, %d outstanding; revocation set version %d (%d entries)\n",
		len(recs), p.Outstanding(), v, len(revoked))
	return nil
}

func runPush(args []string) error {
	fs := flag.NewFlagSet("tacticissue push", flag.ContinueOnError)
	ledger := fs.String("ledger", "", "grant ledger path")
	origin := fs.String("origin", "tacticissue", "control-frame origin identity")
	epoch := fs.Uint64("epoch", 0, "also order a BF rotation to this epoch (0 = none)")
	timeout := fs.Duration("timeout", 5*time.Second, "per-router dial/write timeout")
	var to multiFlag
	fs.Var(&to, "to", "forwarder address to push to (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(to) == 0 {
		return fmt.Errorf("at least one -to address is required")
	}
	p, err := openProvider(*ledger, "")
	if err != nil {
		return err
	}
	defer p.Close()
	version, revoked := p.Revocations(time.Now())
	frames := []*ndn.Control{{
		Kind:    ndn.CtrlRevoke,
		Version: version,
		Origin:  *origin,
		Revoked: revoked,
	}}
	if *epoch != 0 {
		frames = append(frames, &ndn.Control{Kind: ndn.CtrlRotate, Version: *epoch, Origin: *origin})
	}
	for _, addr := range to {
		if err := pushTo(addr, frames, *timeout); err != nil {
			return fmt.Errorf("push to %s: %w", addr, err)
		}
		fmt.Printf("pushed revocation set v%d (%d entries) to %s", version, len(revoked), addr)
		if *epoch != 0 {
			fmt.Printf(", rotate to epoch %d", *epoch)
		}
		fmt.Println()
	}
	return nil
}

func pushTo(addr string, frames []*ndn.Control, timeout time.Duration) error {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return err
	}
	conn := transport.New(nc)
	defer conn.Close()
	conn.SetWriteTimeout(timeout)
	for _, m := range frames {
		if err := conn.SendControl(m); err != nil {
			return err
		}
	}
	return nil
}
