package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"p2pstream/internal/bandwidth"
)

// populate sets every field reachable from v to a distinct non-zero value:
// two-element lists, present pointers, negative as well as positive
// integers. A field the codec forgets therefore fails the round trip.
func populate(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d-é", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n) * 1000003 * int64(1-2*(*n%2)))
	case reflect.Uint64:
		v.SetUint(^uint64(0) - uint64(*n))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		populate(v.Elem(), n)
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			v.SetBytes([]byte{byte(*n), 0, 0xff})
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		populate(v.Index(0), n)
		populate(v.Index(1), n)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			populate(v.Field(i), n)
		}
	default:
		panic("populate: no rule for " + v.Type().String())
	}
}

// TestEveryKindRoundTrips walks the kinds table — which must cover every
// Kind constant — and sends each kind's zero and fully populated body
// through both read paths, by value and by pointer.
func TestEveryKindRoundTrips(t *testing.T) {
	if len(kinds) != int(kindEnd) {
		t.Fatalf("kinds has %d entries for %d kind values: a Kind constant is missing from the table", len(kinds), kindEnd)
	}
	if Kind(0).known() || kindEnd.known() || Kind(0).String() != "kind(0)" {
		t.Errorf("kinds outside the table: %s known=%v, %s known=%v", Kind(0), Kind(0).known(), kindEnd, kindEnd.known())
	}
	names := map[string]Kind{}
	for k := Kind(1); k < kindEnd; k++ {
		name := k.String()
		if !k.known() || kinds[k].body == nil {
			t.Errorf("kind %d has no table entry", k)
			continue
		}
		if prev, dup := names[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		names[name] = k
		zero, full := kinds[k].body(), kinds[k].body()
		n := 0
		populate(reflect.ValueOf(full).Elem(), &n)
		for _, want := range []any{zero, full} {
			byValue := reflect.ValueOf(want).Elem().Interface()
			for _, sent := range []any{want, byValue} {
				var wire bytes.Buffer
				if err := Write(&wire, k, sent); err != nil {
					t.Fatalf("%s: Write(%T): %v", name, sent, err)
				}
				env, err := Read(bytes.NewReader(wire.Bytes()))
				if err != nil || env.Kind != k {
					t.Fatalf("%s: Read = %+v, %v", name, env, err)
				}
				got := kinds[k].body()
				if err := env.Decode(got); err != nil {
					t.Fatalf("%s: Decode: %v", name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s via Read+Decode:\n got %+v\nwant %+v", name, got, want)
				}
				got = kinds[k].body()
				err = ReadExpect(&wire, k, got)
				if re := new(RemoteError); k == KindError && errors.As(err, &re) {
					// ReadExpect never hands an error frame out as a reply.
					got, err = &Error{Message: re.Message}, nil
				}
				if err != nil {
					t.Fatalf("%s: ReadExpect: %v", name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s via ReadExpect:\n got %+v\nwant %+v", name, got, want)
				}
			}
		}
	}
}

// benchPeers is the 8-candidate lookup reply of the benchmark's small-frame
// probe.
func benchPeers() []Candidate {
	peers := make([]Candidate, 8)
	for i := range peers {
		peers[i] = Candidate{ID: fmt.Sprintf("s%d", i), Addr: fmt.Sprintf("127.0.0.1:%d", 40000+i), Class: bandwidth.Class(1 + i%4)}
	}
	return peers
}

// TestGoldenFrames pins the wire layout byte for byte. Changing any of
// these bytes is a wire-format change and needs a new wireVersion.
func TestGoldenFrames(t *testing.T) {
	payload := make([]byte, 16<<10)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	cases := []struct {
		name string
		kind Kind
		body any
		want string // hex of the frame, or of its head when tail is set
		tail []byte
	}{
		{"probe", KindProbe, Probe{RequesterID: "r1", Class: 1, Object: "clip"},
			"0000000b" + "02" + "05" + "02" + "7231" + "02" + "04" + "636c6970", nil},
		{"candidates", KindCandidates, Candidates{Peers: benchPeers(), Len: 64},
			"000000a5" + "02" + "04" + "08" +
				"02" + "7330" + "0f" + "3132372e302e302e313a3430303030" + "02" +
				"02" + "7331" + "0f" + "3132372e302e302e313a3430303031" + "04" +
				"02" + "7332" + "0f" + "3132372e302e302e313a3430303032" + "06" +
				"02" + "7333" + "0f" + "3132372e302e302e313a3430303033" + "08" +
				"02" + "7334" + "0f" + "3132372e302e302e313a3430303034" + "02" +
				"02" + "7335" + "0f" + "3132372e302e302e313a3430303035" + "04" +
				"02" + "7336" + "0f" + "3132372e302e302e313a3430303036" + "06" +
				"02" + "7337" + "0f" + "3132372e302e302e313a3430303037" + "08" +
				"8001", nil},
		{"segment", KindSegment, Segment{ID: 7, Quality: 1, Data: payload},
			"00004007" + "02" + "0b" + "0e" + "02" + "808001", payload},
		{"start-reply", KindStartReply, StartReply{OK: true, Feedback: true},
			"00000005" + "02" + "0a" + "01" + "00" + "01", nil},
	}
	for _, tc := range cases {
		var wire bytes.Buffer
		if err := Write(&wire, tc.kind, tc.body); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := hex.DecodeString(tc.want)
		if err != nil {
			t.Fatalf("%s: bad golden: %v", tc.name, err)
		}
		want = append(want, tc.tail...)
		if !bytes.Equal(wire.Bytes(), want) {
			t.Errorf("%s frame:\n got %x\nwant %x", tc.name, wire.Bytes()[:min(wire.Len(), 200)], want[:min(len(want), 200)])
		}
	}
	// The segment frame is the data plane's overhead: 11 bytes on 16 KiB.
	if ratio := float64(4+0x4007) / float64(len(payload)); ratio > 1.001 {
		t.Errorf("16 KiB segment wire ratio = %.4f, want about 1.00", ratio)
	}
}

// TestDecodeIsStrict: every way a frame can fail to be the unique encoding
// of a message is ErrMalformedFrame — none panics, and none allocates from
// a count it has not checked against the bytes that remain.
func TestDecodeIsStrict(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	cases := []struct {
		name string
		kind Kind
		body []byte
	}{
		{"truncated before a field", KindProbe, []byte{0x02, 'r', '1'}},
		{"truncated inside a string", KindProbe, []byte{0x05, 'r', '1'}},
		{"bytes after the last field", KindAck, []byte{0x02, 0x04, 0x00}},
		{"body on a kind without fields", KindRegisterOK, []byte{0x00}},
		{"non-minimal varint", KindAck, []byte{0x82, 0x00, 0x04}},
		{"varint beyond 64 bits", KindChordFingerQuery, bytes.Repeat([]byte{0xff}, 11)},
		{"boolean 2", KindReminderOK, []byte{0x02}},
		{"presence byte 2", KindChordJoinOK, []byte{0x02, 0x00}},
		{"string length past the end", KindError, append(append([]byte(nil), huge...), 'x')},
		{"payload length past the end", KindSegment, append([]byte{0x00, 0x00}, huge...)},
		{"int list count past the end", KindStart, append([]byte{0x00, 0x00}, huge...)},
		{"struct list count past the end", KindCandidates, append(append([]byte(nil), huge...), 0, 0, 0)},
		{"struct list count past what its elements need", KindChordJoinOK, []byte{0x00, 0x02, 0, 0, 0, 0, 0, 0}},
	}
	for _, tc := range cases {
		env := Envelope{Kind: tc.kind, Body: tc.body}
		decode := func() error { return env.Decode(kinds[tc.kind].body()) }
		if err := decode(); !errors.Is(err, ErrMalformedFrame) {
			t.Errorf("%s: err = %v, want ErrMalformedFrame", tc.name, err)
		}
		if err := ReadExpect(bytes.NewReader(frameOf(tc.kind, tc.body)), tc.kind, kinds[tc.kind].body()); !errors.Is(err, ErrMalformedFrame) {
			t.Errorf("%s: ReadExpect = %v, want ErrMalformedFrame", tc.name, err)
		}
		// The destination and the error are all a refusal may allocate.
		if allocs := testing.AllocsPerRun(20, func() { decode() }); allocs > 8 {
			t.Errorf("%s: %v allocations while refusing %d bytes", tc.name, allocs, len(tc.body))
		}
	}
}
