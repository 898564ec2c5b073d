package transport

import (
	"encoding/binary"
	"strconv"
)

// kinds is the codec's registry: every kind byte, the name it prints as and
// a constructor of its (empty) body. Only a kind's row and coder.value name
// its message type; only fields lays it out.
var kinds = [...]kindRow{
	KindRegister:           row[Register]("register"),
	KindRegisterOK:         row[struct{}]("register-ok"),
	KindLookup:             row[Lookup]("lookup"),
	KindCandidates:         row[Candidates]("candidates"),
	KindProbe:              row[Probe]("probe"),
	KindProbeReply:         row[ProbeReply]("probe-reply"),
	KindReminder:           row[Reminder]("reminder"),
	KindReminderOK:         row[ReminderReply]("reminder-ok"),
	KindStart:              row[Start]("start"),
	KindStartReply:         row[StartReply]("start-reply"),
	KindSegment:            row[Segment]("segment"),
	KindAck:                row[Ack]("ack"),
	KindSessionDone:        row[SessionDone]("session-done"),
	KindError:              row[Error]("error"),
	KindUnregister:         row[Unregister]("unregister"),
	KindUnregisterOK:       row[struct{}]("unregister-ok"),
	KindRegisterBatch:      row[RegisterBatch]("register-batch"),
	KindRegisterBatchOK:    row[struct{}]("register-batch-ok"),
	KindChordJoin:          row[ChordJoin]("chord-join"),
	KindChordJoinOK:        row[ChordJoinReply]("chord-join-ok"),
	KindChordNotify:        row[ChordNotify]("chord-notify"),
	KindChordNotifyOK:      row[ChordNotifyReply]("chord-notify-ok"),
	KindChordFingerQuery:   row[ChordFingerQuery]("chord-finger-query"),
	KindChordFingerOK:      row[ChordFingerReply]("chord-finger-ok"),
	KindChordLookup:        row[ChordLookup]("chord-lookup"),
	KindChordLookupOK:      row[ChordLookupReply]("chord-lookup-ok"),
	KindChordLeave:         row[ChordLeave]("chord-leave"),
	KindChordLeaveOK:       row[ChordLeaveReply]("chord-leave-ok"),
	KindChordReplicate:     row[ChordReplicate]("chord-replicate"),
	KindChordReplicateOK:   row[ChordReplicateReply]("chord-replicate-ok"),
	KindChordReplicaPull:   row[ChordReplicaPull]("chord-replica-pull"),
	KindChordReplicaPullOK: row[ChordReplicaPullReply]("chord-replica-pull-ok"),
	KindDirEpochWatch:      row[DirEpochWatch]("dir-epoch-watch"),
	KindDirEpoch:           row[DirEpoch]("dir-epoch"),
}

type kindRow struct {
	name string
	body func() any
}

// row builds the kind's row for message type T.
func row[T any](name string) kindRow {
	return kindRow{name, func() any { return new(T) }}
}

func (k Kind) known() bool { return int(k) < len(kinds) && kinds[k].name != "" }

// String returns the kind's protocol name.
func (k Kind) String() string {
	if k.known() {
		return kinds[k].name
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

// coder carries one message's fields between its struct and its bytes, in
// whichever direction dec says. Every method takes a pointer to the field:
// encoding appends *p to b and leaves *p alone, decoding consumes b from i
// and stores into *p — so one field list per message (fields) serves both
// directions and they cannot disagree. A decoding failure is sticky: bad
// records the first one and i jumps to the end, so the fields that follow
// find nothing left to read.
type coder struct {
	b   []byte
	i   int    // decoding: the read cursor in b
	dec bool   // decoding, not encoding
	s   string // decoding: b as a string, made on the first string field; every decoded string is a slice of it
	bad string // decoding: why b is malformed, "" while it is not
}

func (c *coder) fail(why string) {
	if c.bad == "" {
		c.bad = why
	}
	c.i = len(c.b)
}

// uint64 is the base of every integer and length: a varint, which decoding
// accepts in its shortest form only.
func (c *coder) uint64(p *uint64) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, *p)
		return
	}
	v, n := binary.Uvarint(c.b[c.i:])
	if n <= 0 || n > 1 && c.b[c.i+n-1] == 0 {
		c.fail("truncated, overflowing or non-minimal varint")
		v, n = 0, 0
	}
	c.i += n
	*p = v
}

// vint is a signed integer of any width, zig-zag folded into a varint.
func vint[T ~int | ~int64](c *coder, p *T) {
	u := uint64(int64(*p)<<1 ^ int64(*p)>>63)
	c.uint64(&u)
	if c.dec {
		v := int64(u>>1) ^ -int64(u&1)
		if *p = T(v); int64(*p) != v {
			c.fail("integer overflows its field")
		}
	}
}

// bool is the one-byte varint 0 or 1.
func (c *coder) bool(p *bool) {
	var u uint64
	if *p {
		u = 1
	}
	c.uint64(&u)
	if c.dec {
		if *p = u == 1; u > 1 {
			c.fail("boolean is not 0 or 1")
		}
	}
}

// count codes a length or element count. Decoding validates it before
// anything is allocated from it: what it counts takes at least min bytes
// apiece, and that must fit in the rest of the frame.
func (c *coder) count(n, min int) int {
	u := uint64(n)
	c.uint64(&u)
	if c.dec && u > uint64((len(c.b)-c.i)/min) {
		c.fail("length or count runs past the end of the frame")
		return 0
	}
	return int(u)
}

func (c *coder) str(p *string) {
	n := c.count(len(*p), 1)
	if !c.dec {
		c.b = append(c.b, *p...)
		return
	}
	*p = ""
	if n > 0 {
		if c.s == "" {
			c.s = string(c.b)
		}
		*p = c.s[c.i : c.i+n]
		c.i += n
	}
}

func (c *coder) bytes(p *[]byte) {
	n := c.count(len(*p), 1)
	switch {
	case !c.dec:
		c.b = append(c.b, *p...)
		return
	case n == 0:
		*p = nil
	default:
		*p = c.b[c.i : c.i+n : c.i+n]
	}
	c.i += n
}

// list codes the element count of *p — each element at least min bytes on
// the wire, one per field when all are empty or zero — then, decoding,
// sizes *p to it (nil for none), and codes each element in place as the
// message or field that fields knows it to be.
func list[T any](c *coder, p *[]T, min int) {
	n := c.count(len(*p), min)
	if c.dec {
		*p = nil
		if n > 0 {
			*p = make([]T, n)
		}
	}
	for i := range *p {
		c.fields(&(*p)[i])
	}
}

// minContact is the least a ChordContact takes on the wire (every field
// empty or zero), for list's count check.
const minContact = 6

// optContact is a presence byte, then the contact if it is 1.
func (c *coder) optContact(p **ChordContact) {
	has := *p != nil
	c.bool(&has)
	if c.dec {
		*p = nil
		if has {
			*p = new(ChordContact)
		}
	}
	if *p != nil {
		c.fields(*p)
	}
}

// value passes the fields of a message passed by value through c, and
// reports false for anything else. Every case hands body to copied, which
// takes the copy whose address fields needs: a switch that made the copies
// itself would carry a slot for each in its own frame. Nothing here keeps
// body, so a message boxed for Append or Write stays on its caller's stack.
func (c *coder) value(body any) bool {
	switch body.(type) {
	case struct{}:
		return copied[struct{}](c, body)
	case Register:
		return copied[Register](c, body)
	case Lookup:
		return copied[Lookup](c, body)
	case Candidates:
		return copied[Candidates](c, body)
	case Probe:
		return copied[Probe](c, body)
	case ProbeReply:
		return copied[ProbeReply](c, body)
	case Reminder:
		return copied[Reminder](c, body)
	case ReminderReply:
		return copied[ReminderReply](c, body)
	case Start:
		return copied[Start](c, body)
	case StartReply:
		return copied[StartReply](c, body)
	case Segment:
		return copied[Segment](c, body)
	case Ack:
		return copied[Ack](c, body)
	case SessionDone:
		return copied[SessionDone](c, body)
	case Error:
		return copied[Error](c, body)
	case Unregister:
		return copied[Unregister](c, body)
	case RegisterBatch:
		return copied[RegisterBatch](c, body)
	case ChordJoin:
		return copied[ChordJoin](c, body)
	case ChordJoinReply:
		return copied[ChordJoinReply](c, body)
	case ChordNotify:
		return copied[ChordNotify](c, body)
	case ChordNotifyReply:
		return copied[ChordNotifyReply](c, body)
	case ChordFingerQuery:
		return copied[ChordFingerQuery](c, body)
	case ChordFingerReply:
		return copied[ChordFingerReply](c, body)
	case ChordLookup:
		return copied[ChordLookup](c, body)
	case ChordLookupReply:
		return copied[ChordLookupReply](c, body)
	case ChordLeave:
		return copied[ChordLeave](c, body)
	case ChordLeaveReply:
		return copied[ChordLeaveReply](c, body)
	case ChordReplicate:
		return copied[ChordReplicate](c, body)
	case ChordReplicateReply:
		return copied[ChordReplicateReply](c, body)
	case ChordReplicaPull:
		return copied[ChordReplicaPull](c, body)
	case ChordReplicaPullReply:
		return copied[ChordReplicaPullReply](c, body)
	case DirEpochWatch:
		return copied[DirEpochWatch](c, body)
	case DirEpoch:
		return copied[DirEpoch](c, body)
	}
	return false
}

// copied passes the fields of a copy of body, a T, through c. It is kept
// out of line so that value's frame holds no T.
//
//go:noinline
func copied[T any](c *coder, body any) bool {
	m := body.(T)
	return c.fields(&m)
}

// fields is the wire layout of every message: it passes the fields of
// body — a pointer to a message, to a struct nested in one or to a list
// element — through c in wire order, and reports false for anything else.
func (c *coder) fields(body any) bool {
	switch m := body.(type) {
	case nil, *struct{}, *DirEpochWatch, *ChordLeaveReply, *ChordReplicateReply:
		// The bare acknowledgements and the epoch subscription: no fields.
	case *string:
		c.str(m)
	case *int:
		vint(c, m)
	case *Register:
		c.str(&m.ID)
		c.str(&m.Addr)
		vint(c, &m.Class)
		c.bool(&m.Refresh)
		c.str(&m.Object)
	case *RegisterBatch:
		list(c, &m.Regs, 5)
	case *Unregister:
		c.str(&m.ID)
		c.str(&m.Object)
	case *DirEpoch:
		vint(c, &m.Epoch)
		list(c, &m.Shards, 2)
	case *DirShard:
		c.str(&m.Name)
		c.str(&m.Addr)
	case *Lookup:
		vint(c, &m.M)
		c.str(&m.Exclude)
		c.str(&m.Object)
	case *Candidates:
		list(c, &m.Peers, 3)
		vint(c, &m.Len)
	case *Candidate:
		c.str(&m.ID)
		c.str(&m.Addr)
		vint(c, &m.Class)
	case *Probe:
		c.str(&m.RequesterID)
		vint(c, &m.Class)
		c.str(&m.Object)
	case *ProbeReply:
		vint(c, &m.Decision)
		c.bool(&m.Favors)
	case *Reminder:
		return c.fields((*Probe)(m))
	case *ReminderReply:
		c.bool(&m.Kept)
	case *Start:
		c.str(&m.RequesterID)
		c.str(&m.FileName)
		list(c, &m.Segments, 1)
		vint(c, &m.Priority)
	case *StartReply:
		c.bool(&m.OK)
		c.str(&m.Reason)
		c.bool(&m.Feedback)
	case *Segment:
		vint(c, &m.ID)
		vint(c, &m.Quality)
		c.bytes(&m.Data)
	case *Ack:
		vint(c, &m.Seq)
		vint(c, &m.Bytes)
	case *SessionDone:
		vint(c, &m.Sent)
	case *Error:
		c.str(&m.Message)
	case *ChordContact:
		c.str(&m.Name)
		c.str(&m.Addr)
		c.str(&m.NodeAddr)
		vint(c, &m.Class)
		list(c, &m.Objects, 1)
		vint(c, &m.Epoch)
	case *ChordRecord:
		c.uint64(&m.Pos)
		c.fields(&m.Peer)
	case *ChordJoin:
		c.fields(&m.Peer)
	case *ChordJoinReply:
		c.optContact(&m.Predecessor)
		list(c, &m.Successors, minContact)
	case *ChordNotify:
		c.fields(&m.Peer)
	case *ChordNotifyReply:
		c.optContact(&m.Predecessor)
		list(c, &m.Successors, minContact)
		c.optContact(&m.Self)
	case *ChordFingerQuery:
		c.uint64(&m.Key)
	case *ChordFingerReply:
		c.bool(&m.Done)
		c.fields(&m.Next)
		list(c, &m.Backups, minContact)
	case *ChordLookup:
		c.uint64(&m.Key)
		c.bool(&m.Topo)
	case *ChordLookupReply:
		c.fields(&m.Owner)
		vint(c, &m.Hops)
	case *ChordLeave:
		c.fields(&m.Peer)
		c.optContact(&m.Predecessor)
		list(c, &m.Successors, minContact)
		list(c, &m.Records, 1+minContact)
	case *ChordReplicate:
		c.bool(&m.Replace)
		c.bool(&m.Withdraw)
		c.uint64(&m.Lo)
		c.uint64(&m.Hi)
		list(c, &m.Records, 1+minContact)
		vint(c, &m.Hops)
	case *ChordReplicaPull:
		c.uint64(&m.Key)
		list(c, &m.Dead, 1)
		c.bool(&m.All)
		c.uint64(&m.Lo)
		c.uint64(&m.Hi)
	case *ChordReplicaPullReply:
		c.bool(&m.Found)
		c.fields(&m.Record)
		list(c, &m.Records, 1+minContact)
	default:
		return false
	}
	return true
}
