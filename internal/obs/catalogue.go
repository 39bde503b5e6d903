// The metric catalogue: every family the live stack exports, declared
// once with its Prometheus type, label keys and help text. Producers
// (forwarder, transport), the health rules and the fleet poller name a
// family only through these constants, the registry takes each family's
// # HELP line from here, and registering a catalogue family under
// another type panics. README's metric list is checked against this
// table (catalogue_test.go).
package obs

import "fmt"

// Metric family names exported by the live stack (see README
// "Operating & monitoring").
const (
	// Enforcement pipeline (Protocols 1-4 at every node).
	MetricInterests     = "tactic_interests_total"
	MetricData          = "tactic_data_total"
	MetricCSHits        = "tactic_cs_hits_total"
	MetricNACKs         = "tactic_nacks_total"
	MetricDrops         = "tactic_drops_total"
	MetricHopSeconds    = "tactic_interest_hop_seconds"
	MetricStageSeconds  = "tactic_stage_seconds"
	MetricRegistrations = "tactic_registrations_total"

	// Bloom filter and signature verification (Fig. 7's lookups,
	// insertions and verifications, Table V's resets).
	MetricBFLookups      = "tactic_bf_lookups_total"
	MetricBFInsertions   = "tactic_bf_insertions_total"
	MetricBFResets       = "tactic_bf_resets_total"
	MetricBFFillRatio    = "tactic_bf_fill_ratio"
	MetricBFFPP          = "tactic_bf_fpp"
	MetricBFTargetFPP    = "tactic_bf_target_fpp"
	MetricVerifications  = "tactic_tag_verifications_total"
	MetricVerifyFailed   = "tactic_tag_verify_failures_total"
	MetricVerifyInFlight = "tactic_tag_verifications_in_flight"

	// Bounded async verification pool.
	MetricVerifySheds       = "tactic_verify_sheds_total"
	MetricVerifyParked      = "tactic_verify_parked"
	MetricVerifyCoalesced   = "tactic_verify_coalesced_total"
	MetricVerifyFlushed     = "tactic_verify_flushed_total"
	MetricVerifyParkSeconds = "tactic_verify_park_seconds"

	// Lifecycle control plane.
	MetricControl        = "tactic_control_total"
	MetricRevokedEntries = "tactic_revoked_entries"
	MetricBFEpoch        = "tactic_bf_epoch"
	MetricBFSyncWords    = "tactic_bf_sync_words_total"

	// Table sizes.
	MetricPITEntries = "tactic_pit_entries"
	MetricCSEntries  = "tactic_cs_entries"
	MetricFIBEntries = "tactic_fib_entries"
	MetricFaces      = "tactic_faces"

	// Faces, failure handling and managed uplinks.
	MetricFaceFrames     = "tactic_face_frames_total"
	MetricFaceBytes      = "tactic_face_bytes_total"
	MetricFaceErrors     = "tactic_face_errors_total"
	MetricFaceFlushes    = "tactic_face_flushes_total"
	MetricPITExpired     = "tactic_pit_expired_total"
	MetricPITFlushed     = "tactic_pit_flushed_total"
	MetricRoutesDetached = "tactic_routes_detached_total"
	MetricUplinkConnects = "tactic_uplink_connects_total"
	MetricUplinkDown     = "tactic_uplink_down_total"
	MetricUplinkUp       = "tactic_uplink_up"

	// UDP datagram plane.
	MetricUDPRxDrops             = "tactic_udp_rx_drops_total"
	MetricUDPRxOversize          = "tactic_udp_rx_oversize_total"
	MetricUDPFragments           = "tactic_udp_fragments_total"
	MetricUDPReassembled         = "tactic_udp_reassembled_total"
	MetricUDPReassemblyEvictions = "tactic_udp_reassembly_evictions_total"
	MetricUDPGSOFallbacks        = "tactic_udp_gso_fallbacks_total"
	MetricUDPSocketWrites        = "tactic_udp_socket_writes_total"
	MetricUDPFaces               = "tactic_udp_faces"
	MetricUDPBatchEnabled        = "tactic_udp_batch_enabled"
	MetricUDPGSOEnabled          = "tactic_udp_gso_enabled"
	MetricUDPGROEnabled          = "tactic_udp_gro_enabled"
)

// FamilySpec declares one metric family.
type FamilySpec struct {
	// Name is the family name.
	Name string
	// Type is the Prometheus type: "counter", "gauge" or "histogram".
	Type string
	// Labels are the label keys a series of the family may carry.
	Labels []string
	// Help is the family's # HELP text.
	Help string
}

func counter(name, help string, labels ...string) FamilySpec {
	return FamilySpec{name, "counter", labels, help}
}

func gauge(name, help string, labels ...string) FamilySpec {
	return FamilySpec{name, "gauge", labels, help}
}

func histogram(name, help string, labels ...string) FamilySpec {
	return FamilySpec{name, "histogram", labels, help}
}

// Label keys shared by several families. Per-face series carry the
// node's role, the face ID and its link direction; the UDP plane's
// socket counters are exported once per socket, under scope="endpoint"
// for a listener and under a dialed uplink's face labels otherwise.
var (
	faceKeys   = []string{"role", "face", "link"}
	udpKeys    = []string{"role", "scope", "face", "link"}
	scopedKeys = []string{"role", "scope"}
)

var catalogue = []FamilySpec{
	counter(MetricInterests, "Interests entering the pipeline.", "role"),
	counter(MetricData, "Data packets entering the pipeline.", "role"),
	counter(MetricCSHits, "Interests answered from the content store.", "role"),
	counter(MetricNACKs, "Invalidity signals sent, by validation failure reason.", "role", "reason"),
	counter(MetricDrops, "Packets dropped, by cause.", "role", "cause"),
	histogram(MetricHopSeconds, "Per-hop Interest pipeline latency.", "role"),
	histogram(MetricStageSeconds, "Sampled pipeline-stage latency, by stage (decode, bf_lookup, verify, pit_cs, encode_send).", "role", "stage"),
	counter(MetricRegistrations, "Tag registrations handled by the origin, by result.", "role", "result"),

	counter(MetricBFLookups, "Bloom-filter membership lookups.", "role"),
	counter(MetricBFInsertions, "Bloom-filter insertions.", "role"),
	counter(MetricBFResets, "Bloom-filter resets (FPP threshold or epoch rotation).", "role"),
	gauge(MetricBFFillRatio, "Fraction of Bloom-filter bits set.", "role"),
	gauge(MetricBFFPP, "Bloom-filter false-positive probability, exact from the set bits (fill ratio ^ k).", "role"),
	gauge(MetricBFTargetFPP, "Configured Bloom-filter false-positive probability target.", "role"),
	counter(MetricVerifications, "Tag signature verifications executed.", "role"),
	counter(MetricVerifyFailed, "Tag verification failures, by reason.", "role", "reason"),
	gauge(MetricVerifyInFlight, "Tag signature verifications currently executing.", "role"),

	counter(MetricVerifySheds, "Interests shed with Overload NACKs because their face exceeded its verification budget.", "role"),
	gauge(MetricVerifyParked, "Interests currently parked in the verification pool awaiting a verdict.", "role"),
	counter(MetricVerifyCoalesced, "Interests answered from another Interest's verification of the same tag.", "role"),
	counter(MetricVerifyFlushed, "Parked Interests flushed with NACKs (face death, revocation, shutdown).", "role"),
	histogram(MetricVerifyParkSeconds, "Time Interests spent parked awaiting a verification verdict.", "role"),

	counter(MetricControl, "Lifecycle control frames processed, by kind and outcome.", "role", "kind", "outcome"),
	gauge(MetricRevokedEntries, "Tag IDs in the router's exact revocation set (consulted before the BF).", "role"),
	gauge(MetricBFEpoch, "Current Bloom-filter epoch (bumped by CtrlRotate).", "role"),
	counter(MetricBFSyncWords, "Bloom-filter words exchanged with sync peers, by direction.", "role", "dir"),

	gauge(MetricPITEntries, "Pending Interest table entries.", "role"),
	gauge(MetricCSEntries, "Content-store entries.", "role"),
	gauge(MetricFIBEntries, "FIB routes installed.", "role"),
	gauge(MetricFaces, "Faces currently attached.", "role"),

	counter(MetricFaceFrames, "Frames moved per face, by link kind and direction.", "role", "face", "link", "dir"),
	counter(MetricFaceBytes, "Frame bytes moved per face, by link kind and direction.", "role", "face", "link", "dir"),
	counter(MetricFaceErrors, "Framing and I/O failures per face.", faceKeys...),
	counter(MetricFaceFlushes, "Write-buffer flushes per stream face; frames out per flush is the send-side batch size.", faceKeys...),
	counter(MetricPITExpired, "PIT entries expired unanswered (the paper's silent request expiry).", "role"),
	counter(MetricPITFlushed, "PIT entries flushed because their upstream face died.", "role"),
	counter(MetricRoutesDetached, "FIB routes detached because their face died.", "role"),
	counter(MetricUplinkConnects, "Managed-uplink attaches, including reconnects.", "role", "addr"),
	counter(MetricUplinkDown, "Managed-uplink detaches (the face died).", "role", "addr"),
	gauge(MetricUplinkUp, "1 while the managed uplink has a live face, else 0.", "role", "addr"),

	counter(MetricUDPRxDrops, "UDP datagrams dropped on full receive queues or accept backlog.", scopedKeys...),
	counter(MetricUDPRxOversize, "UDP datagrams truncated and dropped for exceeding the receive buffer (MTU mismatch).", udpKeys...),
	counter(MetricUDPFragments, "Fragment datagrams moved, by direction.", "role", "scope", "face", "link", "dir"),
	counter(MetricUDPReassembled, "Frames completed from fragment reassembly.", udpKeys...),
	counter(MetricUDPReassemblyEvictions, "Partial packets evicted before reassembly completed (timeout or slot pressure).", udpKeys...),
	counter(MetricUDPSocketWrites, "Socket writes (sendmmsg or sendto calls); datagrams sent per write is the send-side batch size.", udpKeys...),
	counter(MetricUDPGSOFallbacks, "Runtime UDP GSO disable transitions after a kernel rejection.", scopedKeys...),
	gauge(MetricUDPFaces, "Live demultiplexed faces on the UDP endpoint.", scopedKeys...),
	gauge(MetricUDPBatchEnabled, "Whether batched UDP syscalls (recvmmsg/sendmmsg) are active (0/1).", scopedKeys...),
	gauge(MetricUDPGSOEnabled, "Whether UDP generic segmentation offload is active (0/1; drops to 0 after a runtime fallback).", scopedKeys...),
	gauge(MetricUDPGROEnabled, "Whether UDP generic receive offload is active (0/1).", scopedKeys...),
}

// declared indexes the catalogue by family name.
var declared = func() map[string]*FamilySpec {
	m := make(map[string]*FamilySpec, len(catalogue))
	for i := range catalogue {
		spec := &catalogue[i]
		if _, dup := m[spec.Name]; dup {
			panic(fmt.Sprintf("obs: metric %s declared twice", spec.Name))
		}
		m[spec.Name] = spec
	}
	return m
}()

// Catalogue returns every declared family, in declaration order.
func Catalogue() []FamilySpec { return append([]FamilySpec(nil), catalogue...) }
