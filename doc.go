// Package tactic is a from-scratch Go reproduction of "TACTIC: Tag-based
// Access ConTrol Framework for the Information-Centric Wireless Edge
// Networks" (Tourani, Stubbs, Misra — IEEE ICDCS 2018).
//
// TACTIC delegates authentication and authorization from content
// providers to the routers of an ISP edge network: clients register once
// per provider and receive a signed tag that rides in every request;
// routers validate tags with a cheap pre-check plus Bloom-filter-cached
// signature verification, and collaborate through a probabilistic
// re-validation flag so that a tag is verified near the edge once and
// almost never again upstream.
//
// The repository layout:
//
//   - internal/core — the paper's contribution: tags, access paths,
//     access levels, Protocols 1-4, provider registration, client state.
//   - internal/names, internal/bloom, internal/pki, internal/ndn —
//     the substrates: NDN names, Bloom filters, signing/encryption/PKI,
//     and the NDN data plane (Interest/Data/NACK, FIB, PIT, CS).
//   - internal/sim, internal/topology, internal/network,
//     internal/workload — the evaluation platform: a deterministic
//     discrete-event engine, Barabási–Albert ISP topologies, simulated
//     nodes, and the paper's Zipf-window clients and threat-model
//     attackers.
//   - internal/experiment — one runner per paper table and figure;
//     internal/baseline — the comparator access-control schemes.
//   - internal/transport, internal/forwarder — the deployable stack:
//     TLV frames over TCP and a concurrent real-time forwarder,
//     producer, and client (cmd/tacticd in its edge, core and producer
//     roles, cmd/tacticget, cmd/tactickey).
//   - cmd/tacticbench, cmd/tacticsim, cmd/topogen — evaluation tools.
//   - examples/ — runnable end-to-end scenarios.
//
// See README.md for a tour, DESIGN.md for the system inventory and the
// paper-fidelity discussion, and EXPERIMENTS.md for paper-vs-measured
// results. The benchmarks in bench_test.go regenerate each evaluation
// artefact (go test -bench=.).
package tactic
