// Package workload generates the paper's AON traffic: HTTP POST requests
// carrying 5-Kbyte SOAP envelopes with a <quantity> element for the XPath
// //quantity/text() routing decision and filler text to reach the
// AONBench-specified message size (Section 3.2.1), plus the XSD schema the
// SV use case validates against.
//
// Messages are deterministic per index but varied in content (item counts,
// SKUs, filler wording), so branch predictors and caches see realistic
// diversity rather than a single repeated byte pattern.
package workload

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dpi"
	"repro/internal/httpmsg"
	"repro/internal/wcrypto"
	"repro/internal/xsd"
)

// MessageBytes is the AONBench message size the paper uses.
const MessageBytes = 5 * 1024

// UseCase enumerates the three XML server application use cases.
type UseCase int

const (
	// FR is HTTP Forward Request: pure proxying, no content processing.
	FR UseCase = iota
	// CBR is Content-Based Routing: XPath lookup over the message.
	CBR
	// SV is Schema Validation: the message is validated against the
	// pre-stored purchase-order schema.
	SV
	// DPI is deep packet inspection: multi-pattern signature matching
	// over the payload. One of the operations the paper's future work
	// names (Section 6); not part of the published evaluation grid.
	DPI
	// AUTH is message authentication: HMAC-SHA1 verification of the
	// payload ("crypto functions" in the paper's future work). The most
	// CPU-bound point on the spectrum.
	AUTH
	// XJ is XML→JSON protocol translation: the message is parsed and
	// re-emitted as JSON (the "protocol translation" AON operation).
	// Parse-dominated like SV, plus a serialization stage.
	XJ
)

func (u UseCase) String() string {
	switch u {
	case FR:
		return "FR"
	case CBR:
		return "CBR"
	case SV:
		return "SV"
	case DPI:
		return "DPI"
	case AUTH:
		return "AUTH"
	case XJ:
		return "XJ"
	}
	return "invalid"
}

// LookupUseCase finds the use case named s ("FR", "cbr", ...), in any
// letter case. It allocates nothing, so the gateway calls it per message.
func LookupUseCase(s string) (UseCase, bool) {
	for uc := FR; uc <= XJ; uc++ {
		if strings.EqualFold(s, uc.String()) {
			return uc, true
		}
	}
	return FR, false
}

// ParseUseCase is LookupUseCase with an error naming an unknown s.
func ParseUseCase(s string) (UseCase, error) {
	if uc, ok := LookupUseCase(s); ok {
		return uc, nil
	}
	return FR, fmt.Errorf("workload: unknown use case %q", s)
}

// AllUseCases lists the paper's use cases in its network-I/O-intensive to
// CPU-intensive order; the evaluation grid (Figures 3-5, Tables 4-6)
// covers exactly these.
var AllUseCases = []UseCase{FR, CBR, SV}

// ExtendedUseCases are the future-work operations (Section 6) implemented
// beyond the paper's grid.
var ExtendedUseCases = []UseCase{DPI, AUTH, XJ}

// OrderSchemaXSD is the purchase-order schema the SV use case validates
// incoming messages against.
const OrderSchemaXSD = `<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:complexType name="itemType">
    <xs:sequence>
      <xs:element name="sku" type="xs:string"/>
      <xs:element name="quantity" type="xs:positiveInteger"/>
      <xs:element name="price" type="xs:decimal"/>
      <xs:element name="description" type="xs:string" minOccurs="0"/>
    </xs:sequence>
  </xs:complexType>
  <xs:element name="Envelope">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="Header" minOccurs="0">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="transactionID" type="xs:string"/>
              <xs:element name="timestamp" type="xs:string" minOccurs="0"/>
            </xs:sequence>
          </xs:complexType>
        </xs:element>
        <xs:element name="Body">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="purchaseOrder">
                <xs:complexType>
                  <xs:sequence>
                    <xs:element name="customer" type="xs:string"/>
                    <xs:element name="orderDate" type="xs:date"/>
                    <xs:element name="item" type="itemType" maxOccurs="unbounded"/>
                    <xs:element name="filler" type="xs:string" maxOccurs="unbounded"/>
                  </xs:sequence>
                  <xs:attribute name="id" type="xs:string" use="required"/>
                </xs:complexType>
              </xs:element>
            </xs:sequence>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>`

// OrderSchema returns the compiled SV schema (compiled once).
func OrderSchema() *xsd.Schema { return orderSchema }

var orderSchema = xsd.MustParseSchema(OrderSchemaXSD)

// rng is a small deterministic generator so message i is always the same.
type rng uint64

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = rng(x)
	return x
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// fillerWords and customers are arrays so that each r.intn(len(...)) has
// a constant modulus the compiler turns into a mask or a multiply.
var fillerWords = [...]string{
	"transit", "warehouse", "pallet", "invoice", "manifest", "customs",
	"expedite", "fragile", "insured", "logistics", "consignment", "carrier",
	"routing", "dispatch", "terminal", "handling",
}

// spacedFillerWords is fillerWords with the space that follows a filler
// word, so each is one append.
var spacedFillerWords = func() (t [len(fillerWords)]string) {
	for k, w := range fillerWords {
		t[k] = w + " "
	}
	return t
}()

var customers = [...]string{
	"ACME Networks", "Globex Manufacturing", "Initech Services",
	"Umbrella Logistics", "Stark Industrial", "Wayne Enterprises",
}

// SOAPMessage builds message i: a SOAP envelope around a purchase order
// whose first item quantity is "1" for a fraction of messages (the CBR
// routing condition), padded with filler elements to MessageBytes.
func SOAPMessage(i int) []byte { return SOAPMessageSized(i, MessageBytes) }

// SOAPMessageSized is SOAPMessage with an explicit approximate target size
// in bytes. The order preamble (~1 KB) is a floor; above it the message is
// padded with <filler> elements to roughly the requested size, so the live
// load generator can sweep message sizes around the paper's 5 KB default.
// At least one filler element is always emitted (the schema requires one).
func SOAPMessageSized(i, size int) []byte {
	return SOAPMessageSeeded(i, size, 0)
}

// SOAPMessageSeeded is SOAPMessageSized under an explicit campaign seed:
// the seed perturbs the per-index generator state so two campaign runs
// with the same seed replay byte-identical traffic while distinct seeds
// produce distinct (still deterministic) message populations. Seed 0 is
// the legacy stream — SOAPMessageSized output is unchanged. The message is
// appended into one buffer sized for it up front: one allocation.
func SOAPMessageSeeded(i, size int, seed uint64) []byte {
	return appendSOAPMessage(make([]byte, 0, max(size, maxPreamble)), i, size, seed)
}

// appendSOAPMessage appends SOAPMessageSeeded's message to b; it
// reallocates only if b has less than max(size, maxPreamble) bytes to
// spare.
func appendSOAPMessage(b []byte, i, size int, seed uint64) []byte {
	r := rng(uint64(i)*2654435761 + 88172645463325252 + seed*0x9E3779B97F4A7C15)
	r.next()

	start := len(b)
	b = append(b, `<?xml version="1.0" encoding="UTF-8"?>`+"\n"...)
	b = append(b, `<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">`+"\n"...)
	b = append(b, "<soap:Header><transactionID>txn-"...)
	b = appendPadded(b, i, 8)
	b = append(b, "</transactionID><timestamp>2007-03-"...)
	b = appendPadded(b, 1+r.intn(28), 2)
	b = append(b, "</timestamp></soap:Header>\n<soap:Body>\n<purchaseOrder id=\"po-"...)
	b = appendPadded(b, i, 6)
	b = append(b, "\">\n<customer>"...)
	b = append(b, customers[r.intn(len(customers))]...)
	b = append(b, "</customer>\n<orderDate>2007-"...)
	b = appendPadded(b, 1+r.intn(12), 2)
	b = append(b, '-')
	b = appendPadded(b, 1+r.intn(28), 2)
	b = append(b, "</orderDate>\n"...)

	items := 2 + r.intn(4)
	for k := 0; k < items; k++ {
		qty := 1 + r.intn(5)
		if k == 0 {
			// Half the messages match the paper's routing condition
			// //quantity/text() = "1".
			if i%2 == 0 {
				qty = 1
			} else {
				qty = 2 + r.intn(4)
			}
		}
		b = append(b, "<item><sku>SKU-"...)
		b = appendPadded(b, r.intn(10000), 4)
		b = append(b, "</sku><quantity>"...)
		b = strconv.AppendInt(b, int64(qty), 10)
		b = append(b, "</quantity><price>"...)
		b = strconv.AppendInt(b, int64(1+r.intn(500)), 10)
		b = append(b, '.')
		b = appendPadded(b, r.intn(100), 2)
		b = append(b, "</price><description>"...)
		b = append(b, spacedFillerWords[r.intn(len(fillerWords))]...)
		b = append(b, fillerWords[r.intn(len(fillerWords))]...)
		b = append(b, "</description></item>\n"...)
	}

	// Filler elements to reach the target size (AONBench default 5 KB).
	const close = "</purchaseOrder>\n</soap:Body>\n</soap:Envelope>\n"
	first := true
	for first || len(b)-start < size-len(close)-40 {
		first = false
		b = append(b, "<filler>"...)
		for len(b)-start < size-len(close)-60 {
			b = append(b, spacedFillerWords[r.intn(len(fillerWords))]...)
			if r.intn(6) == 0 {
				break
			}
		}
		b = append(b, "</filler>\n"...)
	}
	return append(b, close...)
}

// maxPreamble bounds a message whose size target is below its fixed part:
// the order preamble at its longest (five items, 20-digit indices) is
// under 1 KB, and one empty filler and the closing tags follow it. Above
// it, the filler loop stops at least 20 bytes short of the target.
const maxPreamble = 1200

// appendPadded appends v in decimal, zero-padded to width digits as fmt's
// %0*d pads it: a minus sign comes first and counts toward the width.
func appendPadded(b []byte, v, width int) []byte {
	u := uint64(v)
	if v < 0 {
		b = append(b, '-')
		u = -u
		width--
	}
	var d [20]byte
	digits := strconv.AppendUint(d[:0], u, 10)
	for n := len(digits); n < width; n++ {
		b = append(b, '0')
	}
	return append(b, digits...)
}

// AuthKey is the pre-shared device key for the AUTH use case.
var AuthKey = []byte("aon-device-key-2007")

// TamperEvery makes every Nth AUTH request carry a corrupted MAC, so the
// authentication path exercises both verdicts.
const TamperEvery = 7

// DirtyEvery makes every Nth DPI message carry an embedded inspection
// signature, so the deep-packet-inspection path exercises both verdicts
// (clean → forwarded, dirty → blocked).
const DirtyEvery = 5

// dirtySignature returns the signature embedded in dirty DPI message i
// ("" for clean messages). Signatures cycle through the matcher's
// default rule set so every automaton terminal state gets traffic.
func dirtySignature(i int, signatures []string) string {
	if len(signatures) == 0 || i%DirtyEvery != DirtyEvery-1 {
		return ""
	}
	return signatures[(i/DirtyEvery)%len(signatures)]
}

// HTTPRequest wraps message i in the HTTP POST the clients send. AUTH
// requests carry an X-AON-MAC header with the HMAC-SHA1 of the body
// (corrupted for every TamperEvery-th message).
func HTTPRequest(i int, uc UseCase) []byte {
	return HTTPRequestSeeded(i, uc, MessageBytes, 0)
}

// HTTPRequestSeeded is HTTPRequest with an explicit approximate body size
// and campaign seed (see SOAPMessageSeeded). Seed 0 reproduces the legacy
// byte stream.
//
// The request is one allocation: the body is generated in place behind
// room for the head. The head depends on the body only through its
// Content-Length digits and AUTH's MAC, which is always as long, so the
// room is the head of the longest body the buffer holds. The real head,
// at most a few bytes shorter, is written to end where the body starts.
func HTTPRequestSeeded(i int, uc UseCase, size int, seed uint64) []byte {
	sig := ""
	if uc == DPI {
		sig = dirtySignature(i, dpi.DefaultSignatures)
	}
	bodyCap := max(size, maxPreamble)
	if sig != "" {
		bodyCap += len(sig) + len(" ")
	}
	mac := ""
	if uc == AUTH {
		mac = zeroMAC
	}
	var hb [maxRequestHead]byte
	room := len(appendRequestHead(hb[:0], uc, bodyCap, mac))
	buf := appendSOAPMessage(make([]byte, room, room+bodyCap), i, size, seed)
	body := buf[room:]
	if sig != "" {
		// Splice the signature into the first filler element; DPI matches
		// raw bytes and never parses, so signatures that are not XML-safe
		// are fine here.
		body = insertAfter(body, "<filler>", sig, " ")
	}
	if uc == AUTH {
		sum := wcrypto.HMAC(AuthKey, body, nil, 0)
		mac = hex.EncodeToString(sum[:])
		if i%TamperEvery == TamperEvery-1 {
			mac = "00" + mac[2:]
		}
	}
	head := appendRequestHead(hb[:0], uc, len(body), mac)
	start := room - len(head)
	copy(buf[start:], head)
	return buf[start : room+len(body)]
}

// zeroMAC stands in for AUTH's hex MAC while sizing the head.
var zeroMAC = strings.Repeat("0", 2*wcrypto.Size)

// appendRequestHead appends the head of uc's request for a body of n
// bytes; mac is AUTH's X-AON-MAC value.
func appendRequestHead(dst []byte, uc UseCase, n int, mac string) []byte {
	req := httpmsg.Request{
		Method: "POST",
		Target: serviceTargets[uc],
		Proto:  "HTTP/1.1",
		Headers: []httpmsg.Header{
			{Name: "Host", Value: "aon-gw.example.com"},
			{Name: "Content-Type", Value: "text/xml; charset=utf-8"},
			{Name: "SOAPAction", Value: `"urn:purchaseOrder"`},
			{Name: "Connection", Value: "keep-alive"},
		},
	}
	// Left out, Content-Length is written last by AppendRequestHeader, where
	// it sits in every request but AUTH's, which carries its MAC after it.
	if uc == AUTH {
		req.Headers = append(req.Headers,
			httpmsg.Header{Name: "Content-Length", Value: strconv.Itoa(n)},
			httpmsg.Header{Name: "X-AON-MAC", Value: mac})
	}
	return httpmsg.AppendRequestHeader(dst, &req, n)
}

// insertAfter inserts parts after the first tag in b, moving the rest of
// b up: in place when b has the capacity, as the generators size it.
func insertAfter(b []byte, tag string, parts ...string) []byte {
	at := bytes.Index(b, []byte(tag))
	if at < 0 {
		return b
	}
	at += len(tag)
	n := len(b)
	for _, p := range parts {
		b = append(b, p...)
	}
	copy(b[at+len(b)-n:], b[at:n])
	for _, p := range parts {
		at += copy(b[at:], p)
	}
	return b
}

// maxRequestHead bounds the header block HTTPRequestSeeded writes (AUTH's,
// with its MAC, is the longest).
const maxRequestHead = 320

// serviceTargets is the request target the clients post each use case to,
// built once so that generating a request concatenates nothing.
var serviceTargets = func() (t [XJ + 1]string) {
	for uc := range t {
		t[uc] = "http://aon-gw.example.com/service/" + UseCase(uc).String()
	}
	return t
}()

// InvalidSOAPMessage returns message i mutated so schema validation fails
// (the paper notes "a modified input message can verify whether the XML
// server application is executing this use case correctly").
func InvalidSOAPMessage(i int) []byte {
	return InvalidSOAPMessageSized(i, MessageBytes)
}

// InvalidSOAPMessageSized is InvalidSOAPMessage at an explicit size.
func InvalidSOAPMessageSized(i, size int) []byte {
	return InvalidSOAPMessageSeeded(i, size, 0)
}

// InvalidSOAPMessageSeeded is InvalidSOAPMessageSized under an explicit
// campaign seed (see SOAPMessageSeeded).
func InvalidSOAPMessageSeeded(i, size int, seed uint64) []byte {
	b := appendSOAPMessage(make([]byte, 0, max(size, maxPreamble)+1), i, size, seed)
	return insertAfter(b, "<quantity>", "x")
}

// netperfBuffer returns the netperf send buffer: netperf transmits an
// uninitialized (zero) buffer repeatedly; size follows the benchmark's
// default send size.
func netperfBuffer(size int) []byte { return make([]byte, size) }
