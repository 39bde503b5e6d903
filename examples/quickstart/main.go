// Quickstart walks the TACTIC protocol end to end using the public API
// and real ECDSA P-256 signatures, without the network simulator:
//
//  1. A provider publishes encrypted content with an access level.
//  2. A client enrolls, registers, and receives a signed tag plus the
//     wrapped content-decryption key.
//  3. An edge router validates the request (Protocol 1 pre-check +
//     Protocol 2), a content router serves from cache (Protocol 3), and
//     the client decrypts.
//  4. An attacker replaying the tag from another location, a forged tag,
//     and an expired tag are all rejected.
package main

import (
	"crypto/rand"
	"fmt"
	"log"
	mrand "math/rand"
	"time"

	"github.com/tactic-icn/tactic/internal/bloom"
	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/enforce"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/pki"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	now := time.Now()

	// --- Provider setup: identity, trust registry, published content ---
	provKey, err := pki.GenerateECDSA(rand.Reader, names.MustParse("/acme/KEY/1"))
	if err != nil {
		return err
	}
	registry := pki.NewRegistry()
	if err := registry.Register(provKey.Locator(), provKey.Public()); err != nil {
		return err
	}
	provider, err := core.NewProvider(names.MustParse("/acme"), provKey, 30*time.Second, rand.Reader)
	if err != nil {
		return err
	}
	contentName := names.MustParse("/acme/report/chunk0")
	content, err := provider.Publish(contentName, 2, []byte("quarterly numbers: 42"))
	if err != nil {
		return err
	}
	fmt.Printf("provider %s published %s (AL_D=%d, %d-byte ciphertext)\n",
		provider.Prefix(), contentName, content.Meta.Level, len(content.Payload))

	// --- Client enrollment and registration (paper §4.A) ---
	clientKey, err := pki.GenerateECDSA(rand.Reader, names.MustParse("/users/alice/KEY/1"))
	if err != nil {
		return err
	}
	client, err := core.NewClient(clientKey, rand.Reader)
	if err != nil {
		return err
	}
	provider.Enroll(client.KeyLocator(), clientKey.Public(), 3)

	// The client's location: one access point between it and the edge
	// router.
	homeAP := core.AccessPathOf("ap-home")
	regReq, err := client.NewRegistrationRequest(homeAP)
	if err != nil {
		return err
	}
	resp, err := provider.Register(regReq, now)
	if err != nil {
		return err
	}
	if err := client.StoreRegistration(provider.Prefix(), resp); err != nil {
		return err
	}
	tag := resp.Tag
	fmt.Printf("client %s registered: tag AL_u=%d, expires %s, %d bytes\n",
		client.KeyLocator(), tag.Level, tag.Expiry.Format(time.TimeOnly), tag.Size())

	// --- Routers ---
	newRouter := func(id string) *enforce.Router {
		bf, err := bloom.NewPaper(500, 1e-4)
		if err != nil {
			panic(err) // static parameters; cannot fail
		}
		return enforce.NewRouter(id, bf, core.NewTagValidator(registry), mrand.New(mrand.NewSource(1)), core.Config{})
	}
	edge := newRouter("edge-0")
	contentRouter := newRouter("core-7")

	// --- Protocol 2: edge router processes the Interest ---
	dec := edge.EdgeOnInterest(tag, homeAP, contentName, now)
	if dec.Denied() {
		return fmt.Errorf("unexpected edge drop: %w", dec.Reason)
	}
	fmt.Printf("edge router forwards with F=%g (first sight: not in Bloom filter)\n", dec.Flag)

	// --- Protocol 3: content router serves from its cache ---
	cdec := contentRouter.ContentOnInterest(tag, content.Meta, dec.Flag, now)
	if cdec.Denied() {
		return fmt.Errorf("unexpected content NACK: %w", cdec.Reason)
	}
	fmt.Printf("content router validated the tag (1 signature verification) and returned <D, T> with F=%g\n", cdec.Flag)

	// --- Edge learns the validation and delivers ---
	if edge.EdgeOnData(tag, cdec.Flag, cdec.Denied()).Denied() {
		return fmt.Errorf("edge refused delivery")
	}

	// Second request: the edge Bloom filter now answers.
	dec2 := edge.EdgeOnInterest(tag, homeAP, contentName, now)
	fmt.Printf("second request: edge sets F=%.2g (Bloom-filter hit; upstream re-checks only with that probability)\n", dec2.Flag)

	// --- Client verifies provenance and decrypts ---
	if err := core.VerifyContent(registry, content); err != nil {
		return err
	}
	plain, err := client.Decrypt(provider.Prefix(), content)
	if err != nil {
		return err
	}
	fmt.Printf("client decrypted: %q\n\n", plain)

	// --- Attacks (paper §3.C) ---
	// (e) Tag shared to a different location: access-path mismatch.
	awayAP := core.AccessPathOf("ap-away")
	if d := edge.EdgeOnInterest(tag, awayAP, contentName, now); d.Denied() {
		fmt.Printf("shared tag from another AP: dropped (%v)\n", d.Reason)
	}
	// (b) Forged tag claiming the provider's key locator.
	rogue, err := pki.GenerateECDSA(rand.Reader, provKey.Locator())
	if err != nil {
		return err
	}
	forged, err := core.IssueTag(rogue, names.MustParse("/users/mallory/KEY/1"), 3, homeAP, now.Add(time.Hour))
	if err != nil {
		return err
	}
	if d := contentRouter.ContentOnInterest(forged, content.Meta, 0, now); d.Denied() {
		fmt.Printf("forged tag: NACK (%v)\n", d.Reason)
	}
	// (c) Expired tag.
	later := now.Add(31 * time.Second)
	if d := edge.EdgeOnInterest(tag, homeAP, contentName, later); d.Denied() {
		fmt.Printf("expired tag: dropped at edge pre-check (%v)\n", d.Reason)
	}
	// Revocation = not issuing fresh tags (paper §7).
	provider.Unenroll(client.KeyLocator())
	regReq2, err := client.NewRegistrationRequest(homeAP)
	if err != nil {
		return err
	}
	if _, err := provider.Register(regReq2, later); err != nil {
		fmt.Printf("revoked client cannot re-register: %v\n", err)
	}

	return nil
}
