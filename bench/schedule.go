package main

import "math/rand"

// Sizes of the provisioned world and the shapes of the workloads. They
// are constants so every commit is measured against the same traffic.
const (
	chunkCount      = 8192 // chunks of /prov0/obj, twice the edge content store
	chunkSize       = 1024 // plaintext bytes per chunk; the Data frame stays under the UDP MTU
	subscriberCount = 2048 // enrolled subscribers, four times the Bloom-filter capacity

	hotNames = 1024 // names of the hit workloads: fit the content store
	hotTags  = 16   // tags of the hit workloads: fit the Bloom filter

	hotTagRun   = 64 // requests before a connection switches tag on the hit workloads
	churnTagRun = 4  // consecutive fetches per tag on tag_churn_tcp
	forgedEvery = 16 // one Interest in this many carries a forged tag on tag_churn_tcp

	lightWindow  = 1  // Interests in flight per connection in the light phase
	loadedWindow = 16 // and in the loaded phase
)

// workload is one traffic shape. The names are fixed: later issues refer
// to them.
type workload struct {
	name   string
	scheme string // "tcp" or "udp", used on every hop
	// scanAll walks every published chunk (twice the content store, so LRU
	// never hits) instead of the hot set.
	scanAll bool
	// churn walks every subscriber's tag in short runs and forges one tag
	// in forgedEvery, instead of reusing the hot tags.
	churn bool
	why   string
}

var workloads = []workload{
	{name: "edge_hit_tcp", scheme: "tcp",
		why: "hot names and hot tags over TCP: BF hit and CS hit at the edge, the paper's common case"},
	{name: "full_path_udp", scheme: "udp", scanAll: true,
		why: "cyclic scan of 2x the CS over UDP: every fetch crosses edge, core and producer; PIT, FIB and CS writes"},
	{name: "tag_churn_tcp", scheme: "tcp", churn: true,
		why: "2048 tags against a 500-entry BF plus 1/16 forged tags: verification, BF writes and resets, NACKs"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// request is one scheduled Interest: indexes into the world's chunk names
// and subscribers.
type request struct {
	name int
	tag  int
	// forged asks for a never-seen copy of the tag with another client key
	// under the original signature; the edge must NACK it.
	forged bool
	// needsVerify marks the requests whose tag the edge cannot have in its
	// filter: the first fetch of a churn run and every forged tag.
	needsVerify bool
}

// connSchedule is one connection's seeded, endless request sequence. The
// name and tag cycles are permutations, so a name recurs only after every
// other name of the connection: with any window below the cycle length a
// connection never has two Interests for one name in flight.
type connSchedule struct {
	names  []int
	tags   []int
	tagRun int
	churn  bool
	rng    *rand.Rand
	seq    int
	// forgedAt is the position of the forged Interest inside the current
	// block of forgedEvery requests.
	forgedAt int
	// runFresh is true until the current run's tag has been sent genuine.
	runFresh bool
}

func (s *connSchedule) next() request {
	r := request{
		name: s.names[s.seq%len(s.names)],
		tag:  s.tags[(s.seq/s.tagRun)%len(s.tags)],
	}
	if s.churn {
		if s.seq%forgedEvery == 0 {
			s.forgedAt = s.rng.Intn(forgedEvery)
		}
		if s.seq%s.tagRun == 0 {
			s.runFresh = true
		}
		r.forged = s.seq%forgedEvery == s.forgedAt
		r.needsVerify = r.forged || s.runFresh
		if !r.forged {
			s.runFresh = false
		}
	}
	s.seq++
	return r
}

// plan partitions a workload's names and tags across the connections. The
// partition and every connection's order depend only on the seed.
type plan struct {
	names []int // every name the workload touches (the warm step fetches each once)
	conns []*connSchedule
}

func newPlan(w workload, seed int64, conns int) *plan {
	rng := rand.New(rand.NewSource(seed))
	names := rng.Perm(chunkCount)
	tags := rng.Perm(subscriberCount)
	tagRun := hotTagRun
	if !w.scanAll {
		names = names[:hotNames]
	}
	if w.churn {
		tagRun = churnTagRun
	} else {
		tags = tags[:hotTags]
	}
	p := &plan{names: names}
	for c := 0; c < conns; c++ {
		s := &connSchedule{tagRun: tagRun, churn: w.churn,
			rng: rand.New(rand.NewSource(seed*1_000_003 + int64(c) + 1))}
		for i := c; i < len(names); i += conns {
			s.names = append(s.names, names[i])
		}
		for i := c; i < len(tags); i += conns {
			s.tags = append(s.tags, tags[i])
		}
		p.conns = append(p.conns, s)
	}
	return p
}
