// Package experiment assembles and runs complete TACTIC simulations —
// topology, PKI, providers, routers, access points, clients, and
// attackers — and provides one runner per table and figure of the
// paper's evaluation (§8).
package experiment

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"github.com/tactic-icn/tactic/internal/baseline"
	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/metrics"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/network"
	"github.com/tactic-icn/tactic/internal/obs"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/sim"
	"github.com/tactic-icn/tactic/internal/topology"
	"github.com/tactic-icn/tactic/internal/workload"
)

// AttackerKind selects one threat-model scenario (§3.C) for an attacker.
type AttackerKind int

// Attacker kinds, one per threat.
const (
	// AttackNoTag is threat (a): private content without a tag.
	AttackNoTag AttackerKind = iota + 1
	// AttackFakeTag is threat (b): forged tags (invalid signatures).
	AttackFakeTag
	// AttackExpiredTag is threat (c): stale tags past T_e.
	AttackExpiredTag
	// AttackLowLevel is threat (d): valid tags with insufficient AL.
	AttackLowLevel
	// AttackSharedTag is threat (e): a client's tag replayed from a
	// different location.
	AttackSharedTag
)

// String names the attacker kind.
func (k AttackerKind) String() string {
	switch k {
	case AttackNoTag:
		return "no-tag"
	case AttackFakeTag:
		return "fake-tag"
	case AttackExpiredTag:
		return "expired-tag"
	case AttackLowLevel:
		return "low-level"
	case AttackSharedTag:
		return "shared-tag"
	default:
		return "unknown"
	}
}

// DefaultAttackerMix cycles through every threat scenario.
func DefaultAttackerMix() []AttackerKind {
	return []AttackerKind{AttackNoTag, AttackFakeTag, AttackExpiredTag, AttackLowLevel, AttackSharedTag}
}

// Scenario is a complete simulation configuration. Zero fields take the
// paper's defaults (see withDefaults).
type Scenario struct {
	// Name labels the run.
	Name string
	// PaperTopology selects Table III topology 1-4; when 0, Topology is
	// used directly.
	PaperTopology int
	// Topology is an explicit topology config (ignored when
	// PaperTopology > 0, except for its zero-value detection).
	Topology topology.Config
	// Seed drives all randomness.
	Seed int64
	// Duration is the simulated time span (paper: 2000 s).
	Duration time.Duration
	// BFCapacity is the router Bloom-filter capacity (paper: 500-10000).
	BFCapacity int
	// BFMaxFPP is the saturation threshold (paper: 1e-4).
	BFMaxFPP float64
	// TagTTL is the tag validity period (paper: 10 s default).
	TagTTL time.Duration
	// CSCapacity is the core-router content-store size in chunks.
	CSCapacity int
	// PITLifetime bounds pending Interests.
	PITLifetime time.Duration
	// ObjectsPerProvider and ChunksPerObject shape the catalog
	// (paper: 50 x 50).
	ObjectsPerProvider int
	// ChunksPerObject is the chunk count per object.
	ChunksPerObject int
	// ChunkSize is the chunk payload size in bytes.
	ChunkSize int
	// ContentLevels cycles AL_D across objects; default all level 2.
	ContentLevels []core.AccessLevel
	// ClientLevel is the enrolled clients' AL_u (default 3).
	ClientLevel core.AccessLevel
	// LinkLoss is the per-link packet loss probability.
	LinkLoss float64
	// AttackerMix cycles attacker kinds; default covers all threats.
	AttackerMix []AttackerKind
	// Ablations disables TACTIC features on all routers.
	Ablations core.Config
	// Delays is the computational delay model (default PaperDelays).
	Delays sim.OpDelays
	// UseECDSA switches provider/client signatures to real ECDSA P-256
	// (slower; the default FastScheme preserves validity semantics and
	// timing comes from Delays, per the paper's methodology).
	UseECDSA bool
	// PaperFidelity reconstructs the evaluation setup implied by the
	// paper's own figures: Bloom filters sized for BFCapacity items at a
	// 1e-2 design FPP with request-driven resets at BFMaxFPP, and the
	// paper's literal delay parameters (ms-scale insertion/verification
	// tails). Without it, resets follow unique-tag saturation and the
	// sanitised delay model — the protocol as written. DESIGN.md
	// discusses the discrepancy.
	PaperFidelity bool
	// Baseline substitutes a comparator access-control scheme for
	// TACTIC on the same substrate (Table II comparison).
	Baseline baseline.Scheme
	// DropContentOnNACK enables the DropOnNACK ablation: content
	// routers answer invalid tags with pure NACKs, starving valid
	// aggregated requests downstream.
	DropContentOnNACK bool
	// ColludingEdges compromises the first N edge routers (threat (f)):
	// they skip Protocol 2 and deliver NACKed content, modelling the
	// malicious-ISP-router collusion of §6.
	ColludingEdges int
	// ShortTTLProviders makes the first N providers issue tags with
	// ShortTTL validity — the §6.B malicious-provider low-rate DoS
	// ("adjusting its tags validity to a short period (e.g., one
	// second)" forces clients into constant re-registration).
	ShortTTLProviders int
	// ShortTTL is the malicious providers' tag validity (default 1 s).
	ShortTTL time.Duration
	// TraitorThreshold, when positive, enables the traitor-tracing
	// extension (the paper's §9 future work): a detector shared by all
	// edge routers flags clients whose tags surface at foreign
	// locations more than threshold times.
	TraitorThreshold int
	// TraceEvery enables end-to-end tracing: every consumer
	// head-samples every Nth content request, and each hop records a
	// virtual-time span with its Bloom-filter / verification / queueing
	// decomposition (0 = off). Results gain HopDecomp and the deployment
	// exposes the assembled traces. Tracing reuses the exact RNG draws
	// of an untraced run, so results are unchanged.
	TraceEvery int
}

// Fixed simulation parameters, the paper's values.
const (
	// zipfAlpha is the content-popularity exponent (paper: 0.7).
	zipfAlpha = 0.7
	// lowAttackerLevel is the level granted to low-level attackers,
	// below all private content.
	lowAttackerLevel core.AccessLevel = 1
	// fidelityDesignFPP is the design FPP PaperFidelity sizes the Bloom
	// filters for.
	fidelityDesignFPP = 1e-2
)

// withDefaults fills the paper's default parameters.
func (s Scenario) withDefaults() Scenario {
	if s.PaperTopology == 0 && s.Topology.CoreRouters == 0 {
		s.PaperTopology = 1
	}
	if s.Duration <= 0 {
		s.Duration = 2000 * time.Second
	}
	if s.BFCapacity <= 0 {
		s.BFCapacity = 500
	}
	if s.BFMaxFPP <= 0 {
		s.BFMaxFPP = 1e-4
	}
	if s.TagTTL <= 0 {
		s.TagTTL = 10 * time.Second
	}
	if s.CSCapacity <= 0 {
		s.CSCapacity = 1000
	}
	if s.PITLifetime <= 0 {
		s.PITLifetime = 2 * time.Second
	}
	if s.ObjectsPerProvider <= 0 {
		s.ObjectsPerProvider = 50
	}
	if s.ChunksPerObject <= 0 {
		s.ChunksPerObject = 50
	}
	if s.ChunkSize <= 0 {
		s.ChunkSize = 1024
	}
	if len(s.ContentLevels) == 0 {
		s.ContentLevels = []core.AccessLevel{2}
	}
	if s.ClientLevel == 0 {
		s.ClientLevel = 3
	}
	if s.LinkLoss == 0 {
		s.LinkLoss = 2e-5
	}
	if len(s.AttackerMix) == 0 {
		s.AttackerMix = DefaultAttackerMix()
	}
	if s.ShortTTLProviders > 0 && s.ShortTTL <= 0 {
		s.ShortTTL = time.Second
	}
	if s.PaperFidelity {
		s.Ablations.RequestDrivenReset = true
		s.Ablations.EdgeValidateOnMiss = true
		s.Ablations.PaperAggregates = true
		if s.Delays == (sim.OpDelays{}) {
			s.Delays = sim.PaperLiteralDelays()
		}
	}
	if s.Delays == (sim.OpDelays{}) {
		s.Delays = sim.PaperDelays()
	}
	return s
}

// Result aggregates one run's measurements.
type Result struct {
	// Name echoes the scenario label.
	Name string
	// Seed echoes the run seed.
	Seed int64
	// Duration echoes the simulated span.
	Duration time.Duration

	// ClientDelivery and AttackerDelivery are Table IV's rows.
	ClientDelivery   metrics.Delivery
	AttackerDelivery metrics.Delivery
	// AttackerByKind splits attacker delivery per threat scenario.
	AttackerByKind map[string]metrics.Delivery

	// ClientLatency aggregates all client retrievals.
	ClientLatency metrics.Latency
	// LatencySeries is Fig. 5's per-second average latency (seconds).
	LatencySeries []float64
	// TagQPerSec and TagRPerSec are Fig. 6's per-second tag request and
	// receive counts.
	TagQPerSec []float64
	TagRPerSec []float64

	// EdgeOps and CoreOps are Fig. 7's operation counters, aggregated
	// over edge and core routers respectively.
	EdgeOps metrics.RouterOps
	CoreOps metrics.RouterOps
	// ProviderVerifications counts origin-side signature checks.
	ProviderVerifications uint64
	// ProviderContentServed counts content responses answered by
	// origins (a cache-bypass measure for the baseline comparison).
	ProviderContentServed uint64
	// RegistrationsIssued counts tags issued by all providers.
	RegistrationsIssued uint64
	// RegistrationsFailed counts dropped registration attempts.
	RegistrationsFailed uint64

	// Drops tallies router drops by reason across the network.
	Drops map[string]uint64
	// CSHits and CSMisses aggregate content-store behaviour.
	CSHits, CSMisses uint64
	// Events is the number of simulation events processed.
	Events uint64
	// TraitorSuspects lists client keys flagged by the traitor-tracing
	// extension (empty unless TraitorThreshold was set).
	TraitorSuspects []string
	// HopDecomp is the per-hop latency decomposition of traced requests
	// (empty unless TraceEvery was set): one row per (hop, role) with
	// mean stage durations — the Fig. 5 latency broken down by where on
	// the path the enforcement time goes.
	HopDecomp []HopStage
	// TracesAssembled counts complete traces behind HopDecomp.
	TracesAssembled int
}

// TagQRate returns the average tag-request rate (per second).
func (r *Result) TagQRate() float64 { return ratePerSec(r.TagQPerSec, r.Duration) }

// TagRRate returns the average tag-receive rate (per second).
func (r *Result) TagRRate() float64 { return ratePerSec(r.TagRPerSec, r.Duration) }

func ratePerSec(perSec []float64, d time.Duration) float64 {
	var sum float64
	for _, v := range perSec {
		sum += v
	}
	secs := d.Seconds()
	if secs == 0 {
		return 0
	}
	return sum / secs
}

// Run executes one scenario to completion and collects its results.
func Run(s Scenario) (*Result, error) { return runDefaulted(s.withDefaults()) }

// runDefaulted is Run on a scenario whose defaults are already filled.
func runDefaulted(s Scenario) (*Result, error) {
	d, err := build(s)
	if err != nil {
		return nil, err
	}
	d.Start()
	d.RunToEnd()
	return d.Collect(), nil
}

// Deployment is a fully assembled but not-yet-run scenario. It exposes
// the handles custom orchestrations need — the event engine (to schedule
// mid-run events such as revocations), providers, consumers, and client
// identities — while Collect still produces the standard Result.
type Deployment struct {
	// Scenario is the (defaulted) configuration.
	Scenario Scenario
	// Engine is the discrete-event scheduler; use it to inject events.
	Engine *sim.Engine
	// Network is the assembled forwarding plane.
	Network *network.Network
	// Providers lists the providers' origins in ordinal order.
	Providers []*network.RouterNode
	// Clients and Attackers are the consumer drivers.
	Clients   []*workload.Consumer
	Attackers []*workload.Consumer
	// ClientIdentities are the clients' TACTIC identities, aligned with
	// Clients.
	ClientIdentities []*core.Client
	// ClientKeys are the clients' verifying keys, aligned with Clients
	// (for custom enrollment levels).
	ClientKeys []pki.PublicKey

	b *builder
}

// Build assembles a scenario without running it.
func Build(s Scenario) (*Deployment, error) { return build(s.withDefaults()) }

// build is Build on a scenario whose defaults are already filled.
func build(s Scenario) (*Deployment, error) {
	topoCfg := s.Topology
	if s.PaperTopology > 0 {
		var err error
		topoCfg, err = topology.PaperConfig(s.PaperTopology, s.Seed)
		if err != nil {
			return nil, err
		}
	}
	topoCfg.Seed = s.Seed
	coreSpec := sim.CoreLinkSpec
	edgeSpec := sim.EdgeLinkSpec
	coreSpec.LossProb = s.LinkLoss
	edgeSpec.LossProb = s.LinkLoss
	topoCfg.CoreLink = coreSpec
	topoCfg.EdgeLink = edgeSpec

	g, err := topology.Generate(topoCfg)
	if err != nil {
		return nil, err
	}

	engine := sim.NewEngine()
	streams := sim.NewStreams(s.Seed)
	net := network.New(engine, g, streams)
	net.Delays = s.Delays
	net.ChargeDelays = true

	b := &builder{scenario: s, graph: g, engine: engine, streams: streams, net: net}
	if s.TraceEvery > 0 {
		b.spans = new(bytes.Buffer)
		net.Spans = b.spans
	}
	if s.TraitorThreshold > 0 {
		b.traitor = core.NewTraitorDetector(s.TraitorThreshold)
	}
	if err := b.setupPKIAndProviders(); err != nil {
		return nil, err
	}
	if err := b.setupRouters(); err != nil {
		return nil, err
	}
	b.setupAccessPoints()
	b.installRoutes()
	if err := b.publishCatalog(); err != nil {
		return nil, err
	}
	if err := b.setupConsumers(); err != nil {
		return nil, err
	}
	return &Deployment{
		Scenario:         s,
		Engine:           engine,
		Network:          net,
		Providers:        b.providers,
		Clients:          b.clients,
		Attackers:        b.attackers,
		ClientIdentities: b.clientCores,
		ClientKeys:       b.clientKeys,
		b:                b,
	}, nil
}

// Traces assembles the spans recorded so far into traces (nil unless
// Scenario.TraceEvery was set).
func (d *Deployment) Traces() *obs.Collector { return d.b.traces() }

// Start launches every consumer's request loop.
func (d *Deployment) Start() {
	for _, c := range d.Clients {
		c.Start()
	}
	for _, a := range d.Attackers {
		a.Start()
	}
}

// RunUntil advances the simulation to the given elapsed time.
func (d *Deployment) RunUntil(elapsed time.Duration) {
	d.Engine.RunUntil(sim.Epoch.Add(elapsed))
}

// RunToEnd advances the simulation to the scenario's configured
// duration.
func (d *Deployment) RunToEnd() {
	d.RunUntil(d.Scenario.Duration)
}

// Collect gathers the run's results at the current simulation time.
func (d *Deployment) Collect() *Result {
	return d.b.collect()
}

// builder holds the in-progress scenario assembly.
type builder struct {
	scenario Scenario
	graph    *topology.Graph
	engine   *sim.Engine
	streams  *sim.Streams
	net      *network.Network
	traitor  *core.TraitorDetector
	spans    *bytes.Buffer // every node's spans as JSON lines; nil unless tracing

	registry   *pki.Registry
	providers  []*network.RouterNode
	provPrefix []names.Name
	regNames   map[string]names.Name

	routers      []*network.RouterNode
	edgeRouters  []*network.RouterNode
	coreRouters  []*network.RouterNode
	catalog      *workload.Catalog
	zipf         *workload.Zipf
	clients      []*workload.Consumer
	attackers    []*workload.Consumer
	attackerKind map[*workload.Consumer]AttackerKind
	clientCores  []*core.Client
	clientKeys   []pki.PublicKey
	clientAPs    []core.AccessPath

	sharedLatency *metrics.TimeSeries
	sharedTagQ    *metrics.TimeSeries
	sharedTagR    *metrics.TimeSeries
}

// newSigner creates a signer in the configured scheme.
func (b *builder) newSigner(streamName string, locator names.Name) (pki.Signer, error) {
	rng := b.streams.Stream(streamName)
	if b.scenario.UseECDSA {
		return pki.GenerateECDSA(rng, locator)
	}
	return pki.GenerateFast(rng, locator)
}

// setupPKIAndProviders creates the trust registry, provider identities,
// and their origins.
func (b *builder) setupPKIAndProviders() error {
	b.registry = pki.NewRegistry()
	b.regNames = make(map[string]names.Name)
	provIdxs := b.graph.OfKind(topology.KindProvider)
	rcfg := b.routerConfig()
	for ordinal, idx := range provIdxs {
		prefix := names.MustNew("prov" + strconv.Itoa(ordinal))
		locator := prefix.MustAppend("KEY", "1")
		signer, err := b.newSigner("provider-signer-"+strconv.Itoa(ordinal), locator)
		if err != nil {
			return err
		}
		if err := b.registry.Register(locator, signer.Public()); err != nil {
			return err
		}
		ttl := b.scenario.TagTTL
		if ordinal < b.scenario.ShortTTLProviders {
			ttl = b.scenario.ShortTTL
		}
		prov, err := core.NewProvider(prefix, signer, ttl, b.streams.Stream("provider-rng-"+strconv.Itoa(ordinal)))
		if err != nil {
			return err
		}
		node, err := network.NewOriginNode(b.net, idx, prov, b.registry, b.streams.Stream("provider-node-"+strconv.Itoa(ordinal)), rcfg)
		if err != nil {
			return err
		}
		b.net.SetNode(idx, node)
		b.providers = append(b.providers, node)
		b.provPrefix = append(b.provPrefix, prefix)
		b.regNames[prefix.Key()] = node.RegistrationName()
	}
	return nil
}

// routerConfig builds the shared router configuration.
func (b *builder) routerConfig() network.RouterConfig {
	behaviour := b.scenario.Baseline.Behaviour()
	designFPP := 0.0
	if b.scenario.PaperFidelity {
		designFPP = fidelityDesignFPP
	}
	return network.RouterConfig{
		Traitor:            b.traitor,
		BFCapacity:         b.scenario.BFCapacity,
		BFMaxFPP:           b.scenario.BFMaxFPP,
		BFDesignFPP:        designFPP,
		CSCapacity:         b.scenario.CSCapacity,
		PITLifetime:        b.scenario.PITLifetime,
		Tactic:             b.scenario.Ablations,
		DisableEnforcement: behaviour.DisableEnforcement,
		NoPrivateCache:     behaviour.NoPrivateCache,
		DropContentOnNACK:  b.scenario.DropContentOnNACK,
	}
}

// setupRouters creates edge and core router nodes.
func (b *builder) setupRouters() error {
	cfg := b.routerConfig()
	for _, idx := range b.graph.OfKind(topology.KindCoreRouter) {
		r, err := network.NewRouterNode(b.net, idx, false, b.registry, b.streams.Stream(b.graph.Nodes[idx].ID), cfg)
		if err != nil {
			return err
		}
		b.net.SetNode(idx, r)
		b.routers = append(b.routers, r)
		b.coreRouters = append(b.coreRouters, r)
	}
	edgeCfg := cfg
	edgeCfg.CSCapacity = 0 // edge routers do not cache in the paper's model
	for n, idx := range b.graph.OfKind(topology.KindEdgeRouter) {
		rcfg := edgeCfg
		rcfg.Colluding = n < b.scenario.ColludingEdges
		r, err := network.NewRouterNode(b.net, idx, true, b.registry, b.streams.Stream(b.graph.Nodes[idx].ID), rcfg)
		if err != nil {
			return err
		}
		b.net.SetNode(idx, r)
		b.routers = append(b.routers, r)
		b.edgeRouters = append(b.edgeRouters, r)
	}
	return nil
}

// setupAccessPoints creates AP nodes.
func (b *builder) setupAccessPoints() {
	for _, idx := range b.graph.OfKind(topology.KindAccessPoint) {
		b.net.SetNode(idx, network.NewAPNode(b.net, idx, b.scenario.PITLifetime))
	}
}

// installRoutes installs per-provider shortest-path routes into every
// router FIB.
func (b *builder) installRoutes() {
	provIdxs := b.graph.OfKind(topology.KindProvider)
	for ordinal, provIdx := range provIdxs {
		parent := b.graph.BFSFrom(provIdx)
		prefix := b.provPrefix[ordinal]
		for _, r := range b.routers {
			idx := r.Index()
			next := parent[idx]
			if next == -1 {
				continue
			}
			face := b.net.FaceToward(idx, next)
			r.FIB().Insert(prefix, face)
		}
	}
}

// publishCatalog builds the content universe and installs every chunk
// at its provider's origin store.
func (b *builder) publishCatalog() error {
	catalog, err := workload.BuildCatalog(workload.CatalogConfig{
		Providers:          len(b.providers),
		ObjectsPerProvider: b.scenario.ObjectsPerProvider,
		ChunksPerObject:    b.scenario.ChunksPerObject,
		ChunkSize:          b.scenario.ChunkSize,
		Levels:             b.scenario.ContentLevels,
	})
	if err != nil {
		return err
	}
	b.catalog = catalog
	b.zipf, err = workload.NewZipf(len(catalog.Objects), zipfAlpha)
	if err != nil {
		return err
	}
	payloadRNG := b.streams.Stream("content-payload")
	payload := make([]byte, catalog.ChunkSize)
	for _, obj := range catalog.Objects {
		provNode := b.providers[obj.Provider]
		for k := 0; k < obj.Chunks; k++ {
			if _, err := payloadRNG.Read(payload); err != nil {
				return err
			}
			content, err := provNode.Provider().Publish(obj.ChunkName(k), obj.Level, payload)
			if err != nil {
				return err
			}
			provNode.AddContent(content)
		}
	}
	return nil
}

// apPathOf computes a user's access path: the AP between it and the edge
// router (reset-then-accumulate, matching APNode).
func (b *builder) apPathOf(userIdx int) (core.AccessPath, error) {
	for _, nb := range b.graph.Adj[userIdx] {
		if b.graph.Nodes[nb.Node].Kind == topology.KindAccessPoint {
			return core.EmptyAccessPath.Accumulate(b.graph.Nodes[nb.Node].ID), nil
		}
	}
	return 0, fmt.Errorf("experiment: user %d has no access point", userIdx)
}

// setupConsumers creates clients and attackers.
func (b *builder) setupConsumers() error {
	s := b.scenario
	b.attackerKind = make(map[*workload.Consumer]AttackerKind)
	b.sharedLatency = metrics.NewTimeSeries(time.Second)
	b.sharedTagQ = metrics.NewTimeSeries(time.Second)
	b.sharedTagR = metrics.NewTimeSeries(time.Second)
	consumerCfg := workload.DefaultConsumerConfig()
	consumerCfg.TraceEvery = s.TraceEvery

	// Clients: enrolled at every provider with ClientLevel.
	for _, idx := range b.graph.OfKind(topology.KindClient) {
		id := b.graph.Nodes[idx].ID
		ap, err := b.apPathOf(idx)
		if err != nil {
			return err
		}
		cl, signerPub, err := b.newClient(id)
		if err != nil {
			return err
		}
		for _, p := range b.providers {
			p.Provider().Enroll(cl.KeyLocator(), signerPub, s.ClientLevel)
		}
		src := workload.NewHonestSource(cl, ap)
		consumer := workload.NewConsumer(b.net, idx, src, b.catalog, b.zipf, b.streams.Stream(id+"-consumer"), b.regNames, consumerCfg)
		consumer.AttachCollectors(b.sharedLatency, b.sharedTagQ, b.sharedTagR)
		b.net.SetNode(idx, consumer)
		b.clients = append(b.clients, consumer)
		b.clientCores = append(b.clientCores, cl)
		b.clientKeys = append(b.clientKeys, signerPub)
		b.clientAPs = append(b.clientAPs, ap)
	}

	// Attackers: one threat scenario each, cycling the mix.
	providerKeys := make(map[string]names.Name, len(b.providers))
	for i, p := range b.providers {
		providerKeys[b.provPrefix[i].Key()] = p.Provider().KeyLocator()
	}
	for n, idx := range b.graph.OfKind(topology.KindAttacker) {
		id := b.graph.Nodes[idx].ID
		ap, err := b.apPathOf(idx)
		if err != nil {
			return err
		}
		kind := s.AttackerMix[n%len(s.AttackerMix)]
		src, err := b.attackerSource(kind, id, ap, providerKeys)
		if err != nil {
			return err
		}
		consumer := workload.NewConsumer(b.net, idx, src, b.catalog, b.zipf, b.streams.Stream(id+"-consumer"), b.regNames, consumerCfg)
		b.net.SetNode(idx, consumer)
		b.attackers = append(b.attackers, consumer)
		b.attackerKind[consumer] = kind
	}
	return nil
}

// newClient builds a client identity and returns its verifying key for
// enrollment.
func (b *builder) newClient(id string) (*core.Client, pki.PublicKey, error) {
	locator := names.MustNew("users", id, "KEY", "1")
	signer, err := b.newSigner(id+"-signer", locator)
	if err != nil {
		return nil, nil, err
	}
	cl, err := core.NewClient(signer, b.streams.Stream(id+"-kem"))
	if err != nil {
		return nil, nil, err
	}
	return cl, signer.Public(), nil
}

// attackerSource builds the tag source for one attacker kind.
func (b *builder) attackerSource(kind AttackerKind, id string, ap core.AccessPath, providerKeys map[string]names.Name) (workload.TagSource, error) {
	s := b.scenario
	switch kind {
	case AttackNoTag:
		return workload.NoTagSource{}, nil
	case AttackFakeTag:
		locator := names.MustNew("users", id, "KEY", "1")
		return workload.NewFakeTagSource(b.streams.Stream(id+"-forge"), locator, providerKeys, s.ClientLevel, ap, s.TagTTL), nil
	case AttackExpiredTag:
		cl, _, err := b.newClient(id)
		if err != nil {
			return nil, err
		}
		// The attacker is a revoked client: it holds tags that expired
		// at the simulation epoch and is no longer enrolled anywhere.
		src := workload.NewExpiredTagSource(cl, ap)
		for _, p := range b.providers {
			tag, err := p.Provider().Issue(cl.KeyLocator(), s.ClientLevel, ap, sim.Epoch.Add(-time.Second))
			if err != nil {
				return nil, err
			}
			if err := src.OnRegistration(p.Provider().Prefix(), &core.RegistrationResponse{Tag: tag}); err != nil {
				return nil, err
			}
		}
		return src, nil
	case AttackLowLevel:
		cl, pub, err := b.newClient(id)
		if err != nil {
			return nil, err
		}
		for _, p := range b.providers {
			p.Provider().Enroll(cl.KeyLocator(), pub, lowAttackerLevel)
		}
		return workload.NewHonestSource(cl, ap), nil
	case AttackSharedTag:
		// Paper §3.B: "we assume the client and the unauthorized user
		// are not co-located under the same access point" — co-located
		// sharing is indistinguishable from one client's multiple
		// devices, so pick a victim behind a different AP.
		if len(b.clientCores) > 0 {
			start := len(b.attackers) % len(b.clientCores)
			for off := 0; off < len(b.clientCores); off++ {
				victim := (start + off) % len(b.clientCores)
				if b.clientAPs[victim] != ap {
					return workload.NewSharedTagSource(b.clientCores[victim], b.clientAPs[victim]), nil
				}
			}
		}
		// Every client is co-located with this attacker (degenerate
		// topology): fall back to tagless behaviour.
		return workload.NoTagSource{}, nil
	default:
		return nil, fmt.Errorf("experiment: unknown attacker kind %d", kind)
	}
}

// collect gathers the run's results.
func (b *builder) collect() *Result {
	s := b.scenario
	res := &Result{
		Name:           s.Name,
		Seed:           s.Seed,
		Duration:       s.Duration,
		AttackerByKind: make(map[string]metrics.Delivery),
		Drops:          make(map[string]uint64),
		Events:         b.engine.Processed(),
	}
	for _, c := range b.clients {
		st := c.Stats()
		res.ClientDelivery.Merge(st.Delivery)
		res.ClientLatency.Merge(st.Latency)
	}
	for _, a := range b.attackers {
		st := a.Stats()
		res.AttackerDelivery.Merge(st.Delivery)
		kind := b.attackerKind[a].String()
		d := res.AttackerByKind[kind]
		d.Merge(st.Delivery)
		res.AttackerByKind[kind] = d
	}
	res.LatencySeries = b.sharedLatency.Averages()
	res.TagQPerSec = b.sharedTagQ.Sums()
	res.TagRPerSec = b.sharedTagR.Sums()

	for _, r := range b.edgeRouters {
		st := r.Stats()
		res.EdgeOps.Merge(st.Ops)
		mergeDrops(res.Drops, st.Drops)
		res.CSHits += st.CSHits
		res.CSMisses += st.CSMisses
	}
	for _, r := range b.coreRouters {
		st := r.Stats()
		res.CoreOps.Merge(st.Ops)
		mergeDrops(res.Drops, st.Drops)
		res.CSHits += st.CSHits
		res.CSMisses += st.CSMisses
	}
	for _, p := range b.providers {
		st := p.Stats()
		res.ProviderVerifications += st.Ops.Verifications
		res.ProviderContentServed += st.CSHits - st.NACKsSent
		res.RegistrationsIssued += st.Registrations
		res.RegistrationsFailed += st.RegistrationsFailed
	}
	if b.traitor != nil {
		res.TraitorSuspects = b.traitor.Suspects()
	}
	if traces := b.traces(); traces != nil {
		res.HopDecomp = ComputeHopDecomp(traces)
		res.TracesAssembled = len(traces.Traces())
	}
	return res
}

// traces reads the span stream back, the way cmd/tactictrace reads a
// node's -trace file.
func (b *builder) traces() *obs.Collector {
	if b.spans == nil {
		return nil
	}
	c := obs.NewCollector()
	if _, err := c.ReadSpans(bytes.NewReader(b.spans.Bytes())); err != nil {
		panic("experiment: " + err.Error()) // every line came from obs's own encoder
	}
	return c
}

// mergeDrops accumulates drop counters.
func mergeDrops(dst map[string]uint64, src map[string]uint64) {
	for k, v := range src {
		dst[k] += v
	}
}
