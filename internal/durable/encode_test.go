package durable

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	return string(b)
}

// hardStrings is what every string-typed field is filled with: the plain
// fast path, then one string per escaping rule of encoding/json.
var hardStrings = []string{
	"plain-ascii_0.9~",
	`quo"te`,
	`back\slash`,
	"<html>",
	"a&b",
	"ctl\x00\x01\x1f\n\r\t\b\f",
	"del\x7f",
	"héllo ✓ 世界",
	"line\u2028para\u2029sep",
	"bad\xff\xfeutf8\xc3",
}

// fieldVariants returns non-zero values of typ to put in a field, one
// per escaping rule, integer extreme, slice length and nil/empty shape.
// A type it has no rule for fails the test by the field's name: whoever
// adds such a field adds the rule here and the encoding to appendEvent or
// appendSnapshot.
func fieldVariants(t *testing.T, field string, typ reflect.Type) []reflect.Value {
	t.Helper()
	var out []reflect.Value
	add := func(v any) { out = append(out, reflect.ValueOf(v).Convert(typ)) }
	switch typ.Kind() {
	case reflect.String:
		for _, s := range hardStrings {
			add(s)
		}
	case reflect.Bool:
		add(true)
	case reflect.Int, reflect.Int64:
		for _, n := range []int64{1, -1, 42, math.MaxInt64, math.MinInt64} {
			add(n)
		}
	case reflect.Uint64:
		for _, n := range []uint64{1, 42, math.MaxUint64} {
			add(n)
		}
	case reflect.Slice:
		switch elem := typ.Elem(); elem.Kind() {
		case reflect.Uint8:
			// Seed lengths 0–33 cover every base64 padding case on both
			// sides of the 32-byte ed25519 seed; length 0 is the empty,
			// non-nil slice (nil is the zero value, tried separately).
			for n := 0; n <= 33; n++ {
				b := make([]byte, n)
				for i := range b {
					b[i] = byte(251*i + n)
				}
				add(b)
			}
		case reflect.Uint64:
			for _, ids := range [][]uint64{{}, {7}, {1, 2, math.MaxUint64}} {
				s := reflect.MakeSlice(typ, 0, len(ids))
				for _, id := range ids {
					s = reflect.Append(s, reflect.ValueOf(id).Convert(elem))
				}
				out = append(out, s)
			}
		case reflect.Struct:
			elems := fieldVariants(t, field+"[]", elem)
			out = append(out,
				reflect.MakeSlice(typ, 0, 0), // empty, not nil: [] rather than null
				reflect.Append(reflect.MakeSlice(typ, 0, 1), elems[0]),
				reflect.Append(reflect.MakeSlice(typ, 0, len(elems)), elems...),
			)
		default:
			t.Fatalf("%s: no test values for a slice of %s — add them here and encode the field", field, elem)
		}
	case reflect.Struct:
		// Struct k has every field at its k-th variant; the zero struct
		// comes first (a nil Give, an empty Party).
		out = append(out, reflect.Zero(typ))
		perField := make([][]reflect.Value, typ.NumField())
		most := 0
		for i := range perField {
			perField[i] = fieldVariants(t, field+"."+typ.Field(i).Name, typ.Field(i).Type)
			most = max(most, len(perField[i]))
		}
		for k := 0; k < most; k++ {
			v := reflect.New(typ).Elem()
			for i, vs := range perField {
				v.Field(i).Set(vs[k%len(vs)])
			}
			out = append(out, v)
		}
	case reflect.Pointer:
		for _, v := range fieldVariants(t, field, typ.Elem()) {
			p := reflect.New(typ.Elem())
			p.Elem().Set(v)
			out = append(out, p)
		}
	default:
		t.Fatalf("%s: no test values for type %s — add them here and encode the field", field, typ)
	}
	return out
}

// checkEncoding requires appendEvent(ev) == json.Marshal(ev), appended
// after whatever the buffer already held.
func checkEncoding(t *testing.T, label string, ev engine.Event) {
	t.Helper()
	want, err := json.Marshal(ev)
	if err != nil {
		t.Fatalf("%s: json.Marshal: %v", label, err)
	}
	const prefix = "\x00\x00\x00\x00\x00\x00\x00\x00"
	got := appendEvent([]byte(prefix), &ev)
	if string(got[:len(prefix)]) != prefix {
		t.Errorf("%s: appendEvent overwrote the bytes already in the buffer", label)
	}
	if got = got[len(prefix):]; !bytes.Equal(got, want) {
		t.Errorf("%s: appendEvent and json.Marshal disagree — is the field encoded in appendEvent?\n got %s\nwant %s", label, got, want)
	}
}

// TestAppendEventMatchesJSON is the encoder's differential test:
// json.Marshal is the specification. Every field of engine.Event is set
// to each of its variants alone (so a failure names the field), then all
// fields are set together.
func TestAppendEventMatchesJSON(t *testing.T) {
	checkEncoding(t, "zero Event", engine.Event{})

	typ := reflect.TypeOf(engine.Event{})
	perField := make([][]reflect.Value, typ.NumField())
	most := 0
	for i := range perField {
		name := "Event." + typ.Field(i).Name
		perField[i] = fieldVariants(t, name, typ.Field(i).Type)
		most = max(most, len(perField[i]))
		for _, v := range perField[i] {
			var ev engine.Event
			reflect.ValueOf(&ev).Elem().Field(i).Set(v)
			checkEncoding(t, name, ev)
		}
	}
	for k := 0; k < most; k++ {
		var ev engine.Event
		for i, vs := range perField {
			reflect.ValueOf(&ev).Elem().Field(i).Set(vs[k%len(vs)])
		}
		checkEncoding(t, "all fields set", ev)
	}
}

// FuzzAppendEvent: the encoder against json.Marshal on fuzzed field
// values. give picks the Offer's shape: 0 no offer, 1 a nil Give, 2 an
// empty Give, above that give-2 transfers.
func FuzzAppendEvent(f *testing.F) {
	f.Add("booked", int64(7), "alice", []byte(nil), uint64(3), uint8(3), "bob", "chain-0", "asset-1", uint64(5),
		[]byte(nil), "", 0, "", "", "", int64(0), 0)
	f.Add("settled", int64(118), "", []byte(nil), uint64(9), uint8(0), "", "", "", uint64(0),
		[]byte(nil), "swap-000003", 2, "silent-leader", "", "", int64(0), 0)
	f.Add("identity", int64(0), `p"<&>\`, []byte("0123456789abcdef0123456789abcdef"), uint64(0), uint8(1), "", "", "", uint64(0),
		[]byte{1, 2, 3}, "", 0, "", "why\n\xff", "reveal", int64(-1), -4)
	f.Fuzz(func(t *testing.T, kind string, tick int64, party string, seed []byte, order uint64,
		give uint8, to, chainName, asset string, amount uint64,
		orders []byte, swap string, class int, deviant, reason, phase string, deadline int64, count int) {
		ev := engine.Event{
			Kind: engine.EventKind(kind), Tick: vtime.Ticks(tick), Party: party, Seed: seed,
			Order: engine.OrderID(order), Swap: swap, Class: class, Deviant: deviant, Reason: reason,
			Chain: chainName, Asset: chain.AssetID(asset), Amount: amount,
			Phase: phase, Deadline: vtime.Ticks(deadline), Count: count,
		}
		for i, b := range orders {
			ev.Orders = append(ev.Orders, engine.OrderID(b)<<(i%57))
		}
		if give > 0 {
			ev.Offer = &core.Offer{Party: chain.PartyID(party)}
			if give > 1 {
				ev.Offer.Give = []core.ProposedTransfer{}
			}
			for i := 2; i < int(give%8); i++ {
				ev.Offer.Give = append(ev.Offer.Give, core.ProposedTransfer{
					To: chain.PartyID(to), Chain: chainName, Asset: chain.AssetID(asset), Amount: amount + uint64(i),
				})
			}
		}
		checkEncoding(t, "fuzzed event", ev)
	})
}

// TestWALPayloadsMatchJSON runs a small deterministic engine (some
// deviating parties, so abort paths log too) through a store, re-reads
// the directory, and requires every frame on disk to be exactly
// json.Marshal of the event it decodes to: what the encoder wrote under
// real traffic is what the reflective encoder would have written.
func TestWALPayloadsMatchJSON(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(Options{Dir: dir, SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	e := engine.New(engine.Config{
		Deterministic: true,
		Workers:       4,
		Seed:          11,
		AdversaryRate: 0.2,
		Store:         store,
	})
	if err := e.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	const rings, ringSize = 24, 3
	for r := 0; r < rings; r++ {
		for i := 0; i < ringSize; i++ {
			if _, err := e.Submit(engine.LoadOffer(r, i, ringSize, r%8)); err != nil {
				t.Fatalf("Submit: %v", err)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Stop(ctx); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	// No engine writes an identity any more; the fold still decodes the
	// ones older builds wrote, so one is framed by hand.
	store.Append(engine.Event{Kind: engine.EvIdentity, Tick: 1, Party: "r0-p0", Seed: bytes.Repeat([]byte{7}, 32)})
	if err := store.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	names, err := segmentNames(dir)
	if err != nil {
		t.Fatalf("segmentNames: %v", err)
	}
	kinds := make(map[engine.EventKind]int)
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		frames, err := parseSegment(name, data, false)
		if err != nil {
			t.Fatalf("parseSegment(%s): %v", name, err)
		}
		for _, payload := range frames {
			var ev engine.Event
			if err := json.Unmarshal(payload, &ev); err != nil {
				t.Fatalf("%s: frame %s does not decode: %v", name, payload, err)
			}
			if want := mustJSON(t, ev); string(payload) != want {
				t.Errorf("%s: frame on disk\n %s\nre-encodes as\n %s", name, payload, want)
			}
			kinds[ev.Kind]++
		}
	}
	if len(names) < 2 {
		t.Errorf("run fit in %d segment(s); want a rotation inside it", len(names))
	}
	for _, k := range []engine.EventKind{
		engine.EvIdentity, engine.EvMinted, engine.EvBooked, engine.EvCleared,
		engine.EvReserved, engine.EvPhase, engine.EvReleased, engine.EvSettled,
	} {
		if kinds[k] == 0 {
			t.Errorf("run logged no %q event (kinds seen: %v)", k, kinds)
		}
	}
	if kinds[engine.EvIdentity] != 1 {
		t.Errorf("%d identity frames, want only the hand-built one", kinds[engine.EvIdentity])
	}
}

// labelled is one test value and the field path a failure names.
type labelled struct {
	label string
	v     reflect.Value
}

// mapKeys returns the keys a map-typed field is filled with: every
// hardStrings entry for string keys; for order IDs, numbers whose decimal
// strings sort apart from their values — "10" before "9", a number before
// every number it is a decimal prefix of.
func mapKeys(t *testing.T, field string, typ reflect.Type) []reflect.Value {
	t.Helper()
	var out []reflect.Value
	switch typ.Kind() {
	case reflect.String:
		for _, k := range hardStrings {
			out = append(out, reflect.ValueOf(k).Convert(typ))
		}
	case reflect.Uint64:
		for _, id := range []uint64{9, 10, 1, 100, 99, 2, 20, 0, 1844674407370955161, math.MaxUint64, math.MaxUint64 - 1} {
			out = append(out, reflect.ValueOf(id).Convert(typ))
		}
	default:
		t.Fatalf("%s: no test keys of type %s — add them here and encode the map", field, typ)
	}
	return out
}

// mapCases returns the values a map-typed State field is tried at: every
// key over a cycle of element values (the zero value first), each element
// value alone under one key, and — for a map of structs or struct
// pointers — each field of the struct at each of its variants alone, so a
// failure names the field.
func mapCases(t *testing.T, field string, typ reflect.Type) []labelled {
	t.Helper()
	keys := mapKeys(t, field, typ.Key())
	elem := typ.Elem()
	values := append([]reflect.Value{reflect.Zero(elem)}, fieldVariants(t, field+"[]", elem)...)
	one := func(v reflect.Value) reflect.Value {
		m := reflect.MakeMap(typ)
		m.SetMapIndex(keys[0], v)
		return m
	}
	every := reflect.MakeMap(typ)
	for i, k := range keys {
		every.SetMapIndex(k, values[i%len(values)])
	}
	out := []labelled{{field + ", every key", every}}
	for _, v := range values {
		out = append(out, labelled{field + "[]", one(v)})
	}
	st := elem
	if st.Kind() == reflect.Pointer {
		st = st.Elem()
	}
	if st.Kind() == reflect.Struct {
		for j := 0; j < st.NumField(); j++ {
			name := field + "[]." + st.Field(j).Name
			for _, fv := range fieldVariants(t, name, st.Field(j).Type) {
				p := reflect.New(st)
				p.Elem().Field(j).Set(fv)
				if elem.Kind() == reflect.Struct {
					p = p.Elem()
				}
				out = append(out, labelled{name, one(p)})
			}
		}
	}
	return out
}

// TestAppendSnapshotMatchesJSON is the snapshot encoder's differential
// test: json.Marshal of the envelope is the specification. Every field of
// State — and, inside its maps, every field of AssetState, OrderState and
// SwapState — is tried at each of its variants alone, so a failure names
// the field; then all of State's fields together, and a real fold.
func TestAppendSnapshotMatchesJSON(t *testing.T) {
	var ks keyScratch // shared, as a store reuses it
	check := func(label string, st *State) {
		t.Helper()
		want, err := json.Marshal(snapshot{Version: snapshotVersion, State: st})
		if err != nil {
			t.Fatalf("%s: json.Marshal: %v", label, err)
		}
		const prefix = "\x00\x00\x00\x00\x00\x00\x00\x00"
		got := appendSnapshot([]byte(prefix), st, &ks)
		if string(got[:len(prefix)]) != prefix {
			t.Errorf("%s: appendSnapshot overwrote the bytes already in the buffer", label)
		}
		if got = got[len(prefix):]; !bytes.Equal(got, want) {
			t.Errorf("%s: appendSnapshot and json.Marshal disagree — is the field encoded in appendSnapshot?\n got %s\nwant %s", label, got, want)
		}
	}
	check("nil State", nil)
	check("zero State", &State{})
	check("empty maps", NewState())

	typ := reflect.TypeOf(State{})
	all := reflect.New(typ)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name := "State." + f.Name
		var cases []labelled
		if f.Type.Kind() == reflect.Map {
			cases = mapCases(t, name, f.Type)
		} else {
			for _, v := range fieldVariants(t, name, f.Type) {
				cases = append(cases, labelled{name, v})
			}
		}
		for _, c := range cases {
			st := reflect.New(typ)
			st.Elem().Field(i).Set(c.v)
			check(c.label, st.Interface().(*State))
		}
		all.Elem().Field(i).Set(cases[0].v)
	}
	check("all fields set", all.Interface().(*State))
	check("fixture fold", fixtureFold())
}

// TestSnapshotCoverMatchesJSON extends the snapshot encoder's
// differential test to the envelope's cover field: json.Marshal of the
// envelope with a cover, on an empty, a nil and a real fold, is what
// encodeSnapshot writes, and a zero cover is no field at all.
func TestSnapshotCoverMatchesJSON(t *testing.T) {
	var ks keyScratch
	for _, st := range []*State{nil, NewState(), fixtureFold()} {
		for _, cover := range []int{0, 1, 4, 10, math.MaxInt32} {
			want, err := json.Marshal(snapshot{Version: snapshotVersion, State: st, Cover: cover})
			if err != nil {
				t.Fatalf("json.Marshal: %v", err)
			}
			if got := encodeSnapshot(nil, st, cover, &ks, nil); !bytes.Equal(got, want) {
				t.Errorf("cover %d: encodeSnapshot and json.Marshal disagree\n got %s\nwant %s", cover, got, want)
			}
		}
	}
}
