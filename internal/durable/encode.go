package durable

import (
	"encoding/base64"
	"encoding/json"
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
