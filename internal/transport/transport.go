// Package transport defines the wire protocol of the live peer-to-peer
// streaming overlay: length-prefixed binary messages over any stream
// connection (TCP between real peers, net.Pipe in tests).
//
// The message set mirrors the paper's protocol steps: peers register with
// and query a directory (Section 4.2 footnote 4), probe candidate suppliers
// for admission, leave reminders on busy favoring candidates, trigger the
// chosen suppliers with their OTS_p2p segment assignments, and receive the
// media segments of the session.
//
// # Wire format
//
// A frame is a 4-byte big-endian length, a version byte (wireVersion), a
// kind byte, and the message's fields in the order coder.fields lists
// them — the one place the per-kind layout lives, for both directions.
// The kinds table maps each kind byte to its name and body type. A body is
// sent by value or by pointer, and nothing on the way out keeps it, so a
// message built at the call site stays on its caller's stack.
// Integers are varints (zig-zag when signed), booleans and the presence
// marker of an optional *ChordContact one byte, strings, []byte and lists
// a varint length or count and then the content. There is one format and
// no negotiation: the version rides every frame, so any other peer is
// refused on its first one (ErrWireVersion). Decoding is strict: a message
// has one encoding, and anything else — truncated, over-counted,
// non-minimal, bytes left over — is ErrMalformedFrame. A count is checked
// against the bytes that remain, at its elements' least wire size, before
// anything is sized by it, so a frame makes decoding allocate at most 16
// times its length (a list of empty strings: a byte each on the wire, a
// 16-byte header each in memory). Write boundaries are not part of the
// format: Write sends one frame per write, and frames Append puts back to
// back in one buffer leave in one write and read back one by one.
//
// # Ownership
//
// A Reader reads the frames of one connection through one buffer from the
// package's pool, each fill one Read of whatever the connection has. It
// reads ahead, so it owns the rest of its connection: hand it on to
// whoever reads the connection next, never open a second one. Exchange
// reads its reply through one and refuses a byte past it. Reader.Next
// returns an Envelope by value whose Body is borrowed from that buffer
// until the next frame; decoding copies out of it, so a message keeps
// nothing of the buffer and a frame whose message keeps nothing costs no
// allocation. Reader.NextSegment decodes a Segment frame's header, then
// puts its payload into the buffer the caller picks for it from that
// header — a requester's slot in its media store. Read and ReadExpect are
// the exact one-frame reads: they never read past the frame. Read makes
// one owned copy of the body, and Envelope.Decode aliases Segment.Data,
// the one []byte field, into it on an envelope from Read only. ReadExpect
// decodes out of a pooled buffer. Nothing decoded refers to a pooled
// buffer. Decoded strings are slices of one string copy of the
// body, so keeping one keeps the frame's worth (at most MaxMessageSize):
// harmless where a frame's strings are stored and dropped together — a
// registration, a peer's batch of them, the contacts of one stabilization
// reply — and a reason to clone a string that must far outlive the rest of
// its frame.
package transport

import (
	"p2pstream/internal/bandwidth"
	"p2pstream/internal/dac"
)

// MaxMessageSize bounds a single frame; segments dominate and are small,
// so anything bigger indicates a corrupted or hostile stream.
const MaxMessageSize = 1 << 20

// wireVersion is the second field of every frame. A peer of the JSON era
// has '{' in this position; version 1 had no StartReply.Feedback.
const wireVersion = 2

// Kind discriminates message payloads: the kind byte of a frame. The
// kinds table in codec.go names each one.
type Kind uint8

// The protocol message kinds. The values are the wire encoding: append
// new kinds, never renumber.
const (
	KindRegister     Kind = iota + 1 // supplier -> directory
	KindRegisterOK                   // directory -> supplier
	KindLookup                       // requester -> directory
	KindCandidates                   // directory -> requester
	KindProbe                        // requester -> supplier
	KindProbeReply                   // supplier -> requester
	KindReminder                     // requester -> busy supplier
	KindReminderOK                   // supplier -> requester
	KindStart                        // requester -> chosen supplier
	KindStartReply                   // supplier -> requester
	KindSegment                      // supplier -> requester
	KindAck                          // requester -> supplier (per segment)
	KindSessionDone                  // supplier -> requester
	KindError                        // any -> any
	KindUnregister                   // supplier -> directory
	KindUnregisterOK                 // directory -> supplier

	// Batch registration (multi-object seeds): one round announces a
	// peer's whole supplied-object set instead of one dial per object.
	KindRegisterBatch   // supplier -> directory
	KindRegisterBatchOK // directory -> supplier

	// Chord discovery kinds (decentralized lookup, paper Section 4.2
	// footnote 4): ring members maintain successors and fingers and route
	// key lookups over the same wire substrate the sessions use.
	KindChordJoin        // joiner -> its successor
	KindChordJoinOK      // successor -> joiner
	KindChordNotify      // member -> its successor
	KindChordNotifyOK    // successor -> member
	KindChordFingerQuery // member -> member (one routing step)
	KindChordFingerOK    // member -> member
	KindChordLookup      // any peer -> member (full lookup)
	KindChordLookupOK    // member -> any peer
	KindChordLeave       // departing member -> its neighbors
	KindChordLeaveOK     // neighbor -> departing member

	// Chord replication kinds: registration records spread from each key
	// range's owner to its successor list, so a crashed owner's records
	// stay answerable from replicas (the churn window closes).
	KindChordReplicate     // owner -> successor (record push)
	KindChordReplicateOK   // successor -> owner
	KindChordReplicaPull   // any peer -> member (record fetch)
	KindChordReplicaPullOK // member -> any peer

	// Resharding epoch kinds (elastic directory): a client subscribes a
	// dedicated connection to epoch announcements, and any directory
	// server pushes "epoch E, shards S" over it whenever the deployment's
	// shard set changes — the immediate reply to the subscription carries
	// the current epoch, and later pushes arrive unsolicited on the same
	// connection.
	KindDirEpochWatch // client -> directory (subscribe)
	KindDirEpoch      // directory -> client (reply + push)

	kindEnd // one past the last kind: the kinds table has an entry for every value below it
)

// Register announces a supplying peer to the directory.
type Register struct {
	ID    string
	Addr  string
	Class bandwidth.Class
	// Refresh marks a lease-style re-registration: the directory upserts
	// (address and class replace any existing entry) instead of rejecting
	// the duplicate. Sharded clients re-send registrations periodically so
	// a registry shard that crashed and returned empty is repopulated.
	Refresh bool
	// Object names the media object this registration supplies; each
	// name has a registry of its own.
	Object string
}

// RegisterBatch announces a peer's whole supplied-object set in one
// round: one entry per object, typically sharing ID, Addr and Class.
type RegisterBatch struct {
	Regs []Register
}

// Unregister withdraws a supplying peer from the registry of one media
// object, leaving its registrations for other objects standing.
type Unregister struct {
	ID     string
	Object string
}

// DirEpochWatch subscribes a connection to resharding-epoch
// announcements. The connection carries no further requests: the
// directory answers with the current DirEpoch immediately and pushes a
// fresh one on every flip until the client hangs up.
type DirEpochWatch struct{}

// DirShard identifies one registry shard of an epoch's shard set: the
// stable name whose hash places the shard's arcs on the consistent-hash
// ring, and the address clients dial. Naming shards (rather than hashing
// addresses) keeps key placement identical when a shard moves hosts, and
// keeps rings across epochs comparable point by point.
type DirShard struct {
	Name string
	Addr string
}

// DirEpoch announces one resharding epoch: a monotonically increasing
// epoch number and the complete shard set it is valid for. Clients adopt
// the highest epoch they have seen and ignore stale ones.
type DirEpoch struct {
	Epoch  int64
	Shards []DirShard
}

// Lookup asks the directory for M random candidate suppliers.
type Lookup struct {
	M int
	// Exclude names a peer to omit (a requester never probes itself).
	Exclude string
	// Object names the media object whose suppliers are sampled.
	Object string
}

// Candidate describes one supplier returned by a lookup.
type Candidate struct {
	ID    string
	Addr  string
	Class bandwidth.Class
}

// Candidates is the lookup response.
type Candidates struct {
	Peers []Candidate
	// Len is the answering registry's total supplier count — with a
	// sharded directory, the weight a client's merge gives this shard's
	// sample so the merged result stays exactly uniform over the union.
	Len int
}

// Probe asks a supplier for streaming-service permission. Object names
// the media object and routes the probe to the supplier's admission state
// for it; a supplier that does not supply the object refuses the probe.
type Probe struct {
	RequesterID string
	Class       bandwidth.Class
	Object      string
}

// ProbeReply is the supplier's admission decision.
type ProbeReply struct {
	Decision dac.Decision
	// Favors reports whether the supplier currently favors the requester's
	// class (used for reminder targeting when Decision is DeniedBusy).
	Favors bool
}

// Reminder is left on a busy supplier of the media object Object by a
// rejected requester.
type Reminder struct {
	RequesterID string
	Class       bandwidth.Class
	Object      string
}

// ReminderReply acknowledges a reminder.
type ReminderReply struct {
	Kept bool
}

// Start triggers a chosen supplier with its OTS_p2p assignment: the
// absolute segment IDs it must transmit, in ascending order.
type Start struct {
	RequesterID string
	FileName    string
	Segments    []int
	// Priority orders competing sessions at a shared bottleneck: higher
	// values downgrade later (larger sustain window before the ABR ladder
	// steps down), lower values yield earlier. Zero is the default
	// priority.
	Priority int
}

// StartReply confirms (or refuses) session participation.
type StartReply struct {
	OK     bool
	Reason string
	// Feedback is the plane the supplier runs the session on, its choice
	// alone: when set it paces to an estimate fed by the requester's Acks,
	// which the requester must then send; when clear it keeps the fixed
	// schedule and reads nothing back.
	Feedback bool
}

// Segment carries one media segment.
type Segment struct {
	ID int
	// Quality is the bitrate-class the payload was encoded at: 0 is full
	// quality, each step halves the encoded size (the paper's dyadic
	// ladder applied to the media itself).
	Quality int
	Data    []byte
}

// Ack confirms receipt of one media segment back to its supplier — the
// feedback the send-side bandwidth estimator runs on. Seq echoes the
// segment ID; Bytes counts the payload received on this stream so far,
// this segment's included.
type Ack struct {
	Seq   int
	Bytes int
}

// SessionDone marks the end of a supplier's transmissions.
type SessionDone struct {
	Sent int
}

// ChordContact identifies one member of the wire-level Chord ring: its
// overlay name (whose hash is its ring position), its chord endpoint for
// ring RPCs, its overlay endpoint for probes and sessions, and its
// bandwidth class (so key lookups double as candidate discovery).
type ChordContact struct {
	Name     string
	Addr     string
	NodeAddr string
	Class    bandwidth.Class
	// Objects lists the media objects the member supplies, sorted; a
	// member's contact lists them from its first registration on, and a
	// candidate sample keeps only contacts that list the sampled object.
	// Propagated with the contact through join/notify/lookup replies, so
	// cached copies can lag a peer's latest set by a stabilization round.
	Objects []string
	// Epoch orders contacts for the same name across rejoins: a member
	// that leaves and rejoins (possibly on a new address) stamps a higher
	// epoch, so merges prefer the newest contact and probes never dial an
	// address the member already abandoned. Zero on contacts from members
	// predating epochs; any stamped contact beats an unstamped one.
	Epoch int64
}

// ChordJoin is sent by a joining peer to the ring member it determined to
// be its successor (via a key lookup of its own ring position).
type ChordJoin struct {
	Peer ChordContact
}

// ChordJoinReply transfers the successor's state to the joiner: the
// predecessor it knew before (possibly) adopting the joiner, and its
// successor list (the joiner's fault-tolerance seed).
type ChordJoinReply struct {
	Predecessor *ChordContact
	Successors  []ChordContact
}

// ChordNotify is the stabilization heartbeat a member sends its successor:
// "I believe I am your predecessor".
type ChordNotify struct {
	Peer ChordContact
}

// ChordNotifyReply returns the receiver's predecessor as of before this
// notify (the sender adopts it as a closer successor if it lies between
// them), the receiver's successor list, and the receiver's own fresh
// contact — the sender replaces its stored successor entry with it, so a
// contact change after join (a grown supplied-object set, above all)
// spreads to the peers whose routing answers carry it within one
// stabilization round instead of never.
type ChordNotifyReply struct {
	Predecessor *ChordContact
	Successors  []ChordContact
	Self        *ChordContact
}

// ChordFingerQuery asks a member for one iterative routing step toward a
// key.
type ChordFingerQuery struct {
	Key uint64
}

// ChordFingerReply answers a routing step: when Done, Next is the key's
// owner (the receiver's successor); otherwise Next is the receiver's
// closest finger preceding the key, and the querier continues from there.
// Backups, on a Done reply, lists the owner's own successors as the
// receiver knows them — the replica holders of the owner's key range, in
// fail-over order, so a resolver whose pull finds the owner dead asks
// them directly instead of re-walking into the same corpse.
type ChordFingerReply struct {
	Done    bool
	Next    ChordContact
	Backups []ChordContact
}

// ChordLookup asks a ring member to route a full key lookup on the
// caller's behalf — the entry point for peers that are not (yet) members,
// such as requesting peers sampling candidates before their first session.
type ChordLookup struct {
	Key uint64
	// Topo asks for the key's topological owner (the ring member whose
	// arc covers the key) rather than a registration-record answer; the
	// join path uses it to find a successor, since a joiner needs the
	// member at that position, not whoever registered a record near it.
	Topo bool
}

// ChordLookupReply returns the key's owner and the routing hops expended.
type ChordLookupReply struct {
	Owner ChordContact
	Hops  int
}

// ChordLeave is the graceful-departure notice a leaving member sends both
// ring neighbors, handing its key range to its successor: the successor
// adopts the leaver's predecessor (closing the ownership gap instantly,
// with no stabilization round in between), and the predecessor splices the
// leaver's successor list in place of the leaver.
type ChordLeave struct {
	Peer ChordContact
	// Predecessor is the leaver's predecessor, for the successor to adopt.
	Predecessor *ChordContact
	// Successors is the leaver's successor list, for the predecessor to
	// splice in.
	Successors []ChordContact
	// Records are the registration records the leaver stored as primary
	// owner; the successor inherits the leaver's key range, so it adopts
	// them (minus any naming the leaver itself).
	Records []ChordRecord
}

// ChordLeaveReply acknowledges a leave notice.
type ChordLeaveReply struct{}

// ChordRecord is one replicated registration record: a virtual position on
// the identifier circle and the contact of the member that claimed it.
// A member registering with V virtual nodes publishes V such records; the
// record at the member's own ring position doubles as its liveness anchor.
type ChordRecord struct {
	Pos  uint64
	Peer ChordContact
}

// ChordReplicate pushes registration records to a peer. With Replace set,
// the receiver mirrors the sender's authoritative view of the circular
// range (Lo, Hi]: it stores the pushed records and drops any other record
// in that range (except records naming the receiver itself — a peer's own
// registration is never deleted on hearsay). Without Replace, the records
// are upserted individually (the registration path), and a receiver that
// does not own a record's position forwards it toward the true owner;
// Hops bounds that forwarding against routing flux.
// With Withdraw set, the receiver instead deletes its copies of the
// pushed records (matched by position and registrant name, epoch-gated
// so a rejoined member's fresher record survives a late withdrawal of
// the old incarnation).
type ChordReplicate struct {
	Replace  bool
	Withdraw bool
	Lo       uint64
	Hi       uint64
	Records  []ChordRecord
	Hops     int
}

// ChordReplicateReply acknowledges a record push.
type ChordReplicateReply struct{}

// ChordReplicaPull fetches registration records from a member. With Key
// set (All false) it asks for the best record answering that key — the
// lookup path, served by owners and replicas alike. Dead lists member
// names the puller found unreachable this resolve; the answerer skips
// their records (without deleting them — the puller's evidence is not
// the answerer's). With All set it asks for every record in the circular
// range (Lo, Hi] — the join path, syncing a joiner's inherited range.
type ChordReplicaPull struct {
	Key  uint64
	Dead []string
	All  bool
	Lo   uint64
	Hi   uint64
}

// ChordReplicaPullReply answers a record fetch: Found/Record for a keyed
// pull, Records for a range pull.
type ChordReplicaPullReply struct {
	Found   bool
	Record  ChordRecord
	Records []ChordRecord
}

// Error reports a protocol failure.
type Error struct {
	Message string
}

// RemoteError is what ReadExpect returns when the peer answered with a
// KindError frame: an application-level refusal carried over a healthy,
// still-synchronized connection. Persistent-connection clients keep the
// connection on a RemoteError and drop it on anything else.
type RemoteError struct {
	Message string
}

func (e *RemoteError) Error() string { return "transport: remote error: " + e.Message }
