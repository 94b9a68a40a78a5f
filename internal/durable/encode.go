package durable

import (
	"cmp"
	"encoding/base64"
	"encoding/json"
	"slices"
	"strconv"

	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/engine"
)

// appendEvent appends ev's WAL payload to buf. json.Marshal(ev) is the
// specification and this is the implementation: the bytes are identical,
// without reflection and without allocating once buf has grown. A field
// added to engine.Event (or core.Offer) goes in here too — the
// differential test fails by the field's name until it does.
func appendEvent(buf []byte, ev *engine.Event) []byte {
	buf = append(buf, `{"kind":`...)
	buf = appendString(buf, string(ev.Kind))
	buf = append(buf, `,"tick":`...)
	buf = strconv.AppendInt(buf, int64(ev.Tick), 10)
	if ev.Party != "" {
		buf = append(buf, `,"party":`...)
		buf = appendString(buf, ev.Party)
	}
	if len(ev.Seed) > 0 {
		buf = append(buf, `,"seed":"`...)
		buf = base64.StdEncoding.AppendEncode(buf, ev.Seed)
		buf = append(buf, '"')
	}
	if ev.Order != 0 {
		buf = append(buf, `,"order":`...)
		buf = strconv.AppendUint(buf, uint64(ev.Order), 10)
	}
	if ev.Offer != nil {
		buf = append(buf, `,"offer":`...)
		buf = appendOffer(buf, ev.Offer)
	}
	if len(ev.Orders) > 0 {
		buf = append(buf, `,"orders":[`...)
		for i, id := range ev.Orders {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendUint(buf, uint64(id), 10)
		}
		buf = append(buf, ']')
	}
	if ev.Swap != "" {
		buf = append(buf, `,"swap":`...)
		buf = appendString(buf, ev.Swap)
	}
	if ev.Class != 0 {
		buf = append(buf, `,"class":`...)
		buf = strconv.AppendInt(buf, int64(ev.Class), 10)
	}
	if ev.Deviant != "" {
		buf = append(buf, `,"deviant":`...)
		buf = appendString(buf, ev.Deviant)
	}
	if ev.Reason != "" {
		buf = append(buf, `,"reason":`...)
		buf = appendString(buf, ev.Reason)
	}
	if ev.Chain != "" {
		buf = append(buf, `,"chain":`...)
		buf = appendString(buf, ev.Chain)
	}
	if ev.Asset != "" {
		buf = append(buf, `,"asset":`...)
		buf = appendString(buf, string(ev.Asset))
	}
	if ev.Amount != 0 {
		buf = append(buf, `,"amount":`...)
		buf = strconv.AppendUint(buf, ev.Amount, 10)
	}
	if ev.Phase != "" {
		buf = append(buf, `,"phase":`...)
		buf = appendString(buf, ev.Phase)
	}
	if ev.Deadline != 0 {
		buf = append(buf, `,"deadline":`...)
		buf = strconv.AppendInt(buf, int64(ev.Deadline), 10)
	}
	if ev.Count != 0 {
		buf = append(buf, `,"count":`...)
		buf = strconv.AppendInt(buf, int64(ev.Count), 10)
	}
	return append(buf, '}')
}

// appendOffer encodes a core.Offer, which carries no json tags: Go field
// names, every field present, a nil Give as null.
func appendOffer(buf []byte, o *core.Offer) []byte {
	buf = append(buf, `{"Party":`...)
	buf = appendString(buf, string(o.Party))
	buf = append(buf, `,"Give":`...)
	if o.Give == nil {
		return append(buf, `null}`...)
	}
	buf = append(buf, '[')
	for i := range o.Give {
		g := &o.Give[i]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"To":`...)
		buf = appendString(buf, string(g.To))
		buf = append(buf, `,"Chain":`...)
		buf = appendString(buf, g.Chain)
		buf = append(buf, `,"Asset":`...)
		buf = appendString(buf, string(g.Asset))
		buf = append(buf, `,"Amount":`...)
		buf = strconv.AppendUint(buf, g.Amount, 10)
		buf = append(buf, '}')
	}
	return append(buf, `]}`...)
}

// appendString appends s as a JSON string. Printable ASCII with nothing
// json.Marshal would escape is copied between quotes; anything else —
// quotes, backslashes, the HTML-sensitive <, > and &, control bytes,
// non-ASCII, invalid UTF-8 — is handed to encoding/json itself, so its
// escaping rules are never restated here.
func appendString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always encodes
			return append(buf, quoted...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// keyScratch holds the map keys appendSnapshot sorts, reused across
// snapshots by the store that owns it.
type keyScratch struct {
	strs []string
	ids  []engine.OrderID
}

// appendSnapshot appends the snapshot envelope of st to buf: the bytes of
// json.Marshal(snapshot{Version: snapshotVersion, State: st}), without
// reflection, map keys in json's order. A field added to State or to a
// type it holds goes in here too — the differential test fails by the
// field's name until it does.
func appendSnapshot(buf []byte, st *State, ks *keyScratch) []byte {
	return encodeSnapshot(buf, st, 0, ks, nil)
}

// encodeSnapshot is appendSnapshot with a cover and a spill. A positive
// cover is the envelope's cover field, which json.Marshal writes after
// the state. When spill is not nil, the buffer is handed to it between two
// map entries whenever it holds snapChunk bytes or more, and the encoding
// goes on in the buffer spill returns. What the last spill leaves in the
// buffer is returned.
func encodeSnapshot(buf []byte, st *State, cover int, ks *keyScratch, spill func([]byte) []byte) []byte {
	buf = append(buf, `{"version":`...)
	buf = strconv.AppendInt(buf, snapshotVersion, 10)
	buf = append(buf, `,"state":`...)
	if st == nil {
		buf = append(buf, `null`...)
	} else {
		buf = encodeState(buf, st, ks, spill)
	}
	if cover > 0 {
		buf = append(buf, `,"cover":`...)
		buf = strconv.AppendInt(buf, int64(cover), 10)
	}
	return append(buf, '}')
}

// encodeState appends st, as encodeSnapshot does inside the envelope.
func encodeState(buf []byte, st *State, ks *keyScratch, spill func([]byte) []byte) []byte {
	sep := byte('{')
	if len(st.Assets) > 0 {
		buf = appendField(buf, &sep, `"assets":`)
		for i, k := range sortedKeys(ks, st.Assets) {
			buf = appendKey(buf, i, k)
			buf = spillFull(appendAsset(buf, st.Assets[k]), spill)
		}
		buf = append(buf, '}')
	}
	if len(st.Orders) > 0 {
		buf = appendField(buf, &sep, `"orders":`)
		ks.ids = slices.Grow(ks.ids[:0], len(st.Orders))
		for id := range st.Orders {
			ks.ids = append(ks.ids, id)
		}
		slices.SortFunc(ks.ids, cmpDecimal)
		for i, id := range ks.ids {
			if i == 0 {
				buf = append(buf, `{"`...)
			} else {
				buf = append(buf, `,"`...)
			}
			buf = strconv.AppendUint(buf, uint64(id), 10)
			buf = append(buf, `":`...)
			o := st.Orders[id]
			buf = spillFull(appendOrder(buf, &o), spill)
		}
		buf = append(buf, '}')
	}
	if len(st.Swaps) > 0 {
		buf = appendField(buf, &sep, `"swaps":`)
		for i, tag := range sortedKeys(ks, st.Swaps) {
			buf = appendKey(buf, i, tag)
			sw := st.Swaps[tag]
			buf = spillFull(appendSwap(buf, &sw), spill)
		}
		buf = append(buf, '}')
	}
	if st.Shed != 0 {
		buf = appendField(buf, &sep, `"shed":`)
		buf = strconv.AppendInt(buf, int64(st.Shed), 10)
	}
	if st.Reverts != 0 {
		buf = appendField(buf, &sep, `"reverts":`)
		buf = strconv.AppendInt(buf, int64(st.Reverts), 10)
	}
	buf = appendField(buf, &sep, `"max_tick":`)
	buf = strconv.AppendInt(buf, int64(st.MaxTick), 10)
	buf = append(buf, `,"events":`...)
	buf = strconv.AppendInt(buf, int64(st.Events), 10)
	return append(buf, '}')
}

// spillFull hands buf to spill if there is one and buf holds a chunk.
func spillFull(buf []byte, spill func([]byte) []byte) []byte {
	if spill != nil && len(buf) >= snapChunk {
		return spill(buf)
	}
	return buf
}

// appendField opens an object field: the brace or comma *sep holds, then
// the quoted name and colon; from then on *sep is a comma.
func appendField(buf []byte, sep *byte, name string) []byte {
	buf = append(buf, *sep)
	*sep = ','
	return append(buf, name...)
}

// sortedKeys returns m's keys in ascending byte order, json's map key
// order, in the scratch slice.
func sortedKeys[V any](ks *keyScratch, m map[string]V) []string {
	ks.strs = slices.Grow(ks.strs[:0], len(m))
	for k := range m {
		ks.strs = append(ks.strs, k)
	}
	slices.Sort(ks.strs)
	return ks.strs
}

// appendKey opens entry i of a JSON object: the brace or comma, the
// quoted key, the colon.
func appendKey(buf []byte, i int, k string) []byte {
	if i == 0 {
		buf = append(buf, '{')
	} else {
		buf = append(buf, ',')
	}
	buf = appendString(buf, k)
	return append(buf, ':')
}

// pow10 holds every power of ten a uint64 can: 10^0 … 10^19.
var pow10 = func() (p [20]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = 10 * p[i-1]
	}
	return p
}()

// digits counts the decimal digits of n.
func digits(n uint64) int {
	d := 1
	for d < len(pow10) && n >= pow10[d] {
		d++
	}
	return d
}

// cmpDecimal orders order IDs as json orders them as map keys: by their
// decimal strings, so "10" sorts before "9". The longer number is cut to
// the shorter one's length; equal leading digits put the shorter first.
func cmpDecimal(a, b engine.OrderID) int {
	x, y := uint64(a), uint64(b)
	dx, dy := digits(x), digits(y)
	switch {
	case dx < dy:
		if c := cmp.Compare(x, y/pow10[dy-dx]); c != 0 {
			return c
		}
		return -1
	case dx > dy:
		if c := cmp.Compare(x/pow10[dx-dy], y); c != 0 {
			return c
		}
		return 1
	}
	return cmp.Compare(x, y)
}

// appendAsset encodes one AssetState (null for nil).
func appendAsset(buf []byte, a *AssetState) []byte {
	if a == nil {
		return append(buf, `null`...)
	}
	buf = append(buf, `{"chain":`...)
	buf = appendString(buf, a.Chain)
	buf = append(buf, `,"asset":`...)
	buf = appendString(buf, string(a.Asset))
	buf = append(buf, `,"amount":`...)
	buf = strconv.AppendUint(buf, a.Amount, 10)
	buf = append(buf, `,"owner":`...)
	buf = appendString(buf, a.Owner)
	buf = append(buf, `,"owner_tick":`...)
	buf = strconv.AppendInt(buf, int64(a.OwnerTick), 10)
	if a.OwnerSwap != "" {
		buf = append(buf, `,"owner_swap":`...)
		buf = appendString(buf, a.OwnerSwap)
	}
	return append(buf, '}')
}

// appendOrder encodes one OrderState.
func appendOrder(buf []byte, o *OrderState) []byte {
	buf = append(buf, `{"offer":`...)
	buf = appendOffer(buf, &o.Offer)
	buf = append(buf, `,"submitted_tick":`...)
	buf = strconv.AppendInt(buf, int64(o.SubmittedTick), 10)
	buf = append(buf, `,"status":`...)
	buf = appendString(buf, o.Status)
	if o.Reason != "" {
		buf = append(buf, `,"reason":`...)
		buf = appendString(buf, o.Reason)
	}
	if o.Class != 0 {
		buf = append(buf, `,"class":`...)
		buf = strconv.AppendInt(buf, int64(o.Class), 10)
	}
	if o.Swap != "" {
		buf = append(buf, `,"swap":`...)
		buf = appendString(buf, o.Swap)
	}
	if o.Deviant != "" {
		buf = append(buf, `,"deviant":`...)
		buf = appendString(buf, o.Deviant)
	}
	if o.SettledTick != 0 {
		buf = append(buf, `,"settled_tick":`...)
		buf = strconv.AppendInt(buf, int64(o.SettledTick), 10)
	}
	return append(buf, '}')
}

// appendSwap encodes one SwapState; a nil Orders is null, an empty one [].
func appendSwap(buf []byte, sw *SwapState) []byte {
	buf = append(buf, `{"orders":`...)
	if sw.Orders == nil {
		buf = append(buf, `null`...)
	} else {
		buf = append(buf, '[')
		for i, id := range sw.Orders {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendUint(buf, uint64(id), 10)
		}
		buf = append(buf, ']')
	}
	if sw.Phase != "" {
		buf = append(buf, `,"phase":`...)
		buf = appendString(buf, sw.Phase)
	}
	if sw.Deadline != 0 {
		buf = append(buf, `,"deadline":`...)
		buf = strconv.AppendInt(buf, int64(sw.Deadline), 10)
	}
	if sw.Prepared {
		buf = append(buf, `,"prepared":true`...)
	}
	if sw.Spans != 0 {
		buf = append(buf, `,"spans":`...)
		buf = strconv.AppendInt(buf, int64(sw.Spans), 10)
	}
	return append(buf, '}')
}
