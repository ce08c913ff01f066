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
	"encoding/hex"
	"fmt"
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

// ParseUseCase maps a use-case name ("FR", "cbr", ...) to its UseCase.
func ParseUseCase(s string) (UseCase, error) {
	for _, uc := range append(append([]UseCase{}, AllUseCases...), ExtendedUseCases...) {
		if strings.EqualFold(s, uc.String()) {
			return uc, nil
		}
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

var fillerWords = []string{
	"transit", "warehouse", "pallet", "invoice", "manifest", "customs",
	"expedite", "fragile", "insured", "logistics", "consignment", "carrier",
	"routing", "dispatch", "terminal", "handling",
}

var customers = []string{
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
// the legacy stream — SOAPMessageSized output is unchanged.
func SOAPMessageSeeded(i, size int, seed uint64) []byte {
	r := rng(uint64(i)*2654435761 + 88172645463325252 + seed*0x9E3779B97F4A7C15)
	r.next()

	var b strings.Builder
	b.WriteString(`<?xml version="1.0" encoding="UTF-8"?>` + "\n")
	b.WriteString(`<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">` + "\n")
	fmt.Fprintf(&b, "<soap:Header><transactionID>txn-%08d</transactionID><timestamp>2007-03-%02d</timestamp></soap:Header>\n", i, 1+r.intn(28))
	b.WriteString("<soap:Body>\n")
	fmt.Fprintf(&b, `<purchaseOrder id="po-%06d">`+"\n", i)
	fmt.Fprintf(&b, "<customer>%s</customer>\n", customers[r.intn(len(customers))])
	fmt.Fprintf(&b, "<orderDate>2007-%02d-%02d</orderDate>\n", 1+r.intn(12), 1+r.intn(28))

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
		fmt.Fprintf(&b, "<item><sku>SKU-%04d</sku><quantity>%d</quantity><price>%d.%02d</price><description>%s %s</description></item>\n",
			r.intn(10000), qty, 1+r.intn(500), r.intn(100),
			fillerWords[r.intn(len(fillerWords))], fillerWords[r.intn(len(fillerWords))])
	}

	// Filler elements to reach the target size (AONBench default 5 KB).
	const close = "</purchaseOrder>\n</soap:Body>\n</soap:Envelope>\n"
	first := true
	for first || b.Len() < size-len(close)-40 {
		first = false
		b.WriteString("<filler>")
		for b.Len() < size-len(close)-60 {
			b.WriteString(fillerWords[r.intn(len(fillerWords))])
			b.WriteByte(' ')
			if r.intn(6) == 0 {
				break
			}
		}
		b.WriteString("</filler>\n")
	}
	b.WriteString(close)
	return []byte(b.String())
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
func HTTPRequestSeeded(i int, uc UseCase, size int, seed uint64) []byte {
	body := SOAPMessageSeeded(i, size, seed)
	if uc == DPI {
		if sig := dirtySignature(i, dpi.DefaultSignatures); sig != "" {
			// Splice the signature into the first filler element; DPI
			// matches raw bytes and never parses, so signatures that are
			// not XML-safe are fine here.
			body = []byte(strings.Replace(string(body), "<filler>", "<filler>"+sig+" ", 1))
		}
	}
	req := &httpmsg.Request{
		Method: "POST",
		Target: fmt.Sprintf("http://aon-gw.example.com/service/%s", uc),
		Proto:  "HTTP/1.1",
		Headers: []httpmsg.Header{
			{Name: "Host", Value: "aon-gw.example.com"},
			{Name: "Content-Type", Value: "text/xml; charset=utf-8"},
			{Name: "SOAPAction", Value: `"urn:purchaseOrder"`},
			{Name: "Connection", Value: "keep-alive"},
			{Name: "Content-Length", Value: fmt.Sprint(len(body))},
		},
		Body: body,
	}
	if uc == AUTH {
		mac := wcrypto.HMAC(AuthKey, body, nil, 0)
		hexMAC := hex.EncodeToString(mac[:])
		if i%TamperEvery == TamperEvery-1 {
			hexMAC = "00" + hexMAC[2:]
		}
		req.Headers = append(req.Headers, httpmsg.Header{Name: "X-AON-MAC", Value: hexMAC})
	}
	return httpmsg.FormatRequest(req)
}

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
	msg := string(SOAPMessageSeeded(i, size, seed))
	return []byte(strings.Replace(msg, "<quantity>", "<quantity>x", 1))
}

// netperfBuffer returns the netperf send buffer: netperf transmits an
// uninitialized (zero) buffer repeatedly; size follows the benchmark's
// default send size.
func netperfBuffer(size int) []byte { return make([]byte, size) }
