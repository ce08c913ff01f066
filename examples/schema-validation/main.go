// schema-validation exercises the SV use case as a plain library: schema
// authoring with the supported XSD subset, validation of conforming and
// violating documents, and the paper's trick of using "a modified input
// message [to] verify whether the XML server application is executing this
// use case correctly" (Section 3.2.1).
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/workload"
	"repro/internal/xmldom"
	"repro/internal/xsd"
)

const inventorySchema = `<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:simpleType name="binType">
    <xs:restriction base="xs:string">
      <xs:enumeration value="bulk"/>
      <xs:enumeration value="shelf"/>
      <xs:enumeration value="cold"/>
    </xs:restriction>
  </xs:simpleType>
  <xs:element name="inventory">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="site" type="xs:string"/>
        <xs:element name="audited" type="xs:date" minOccurs="0"/>
        <xs:element name="entry" maxOccurs="unbounded">
          <xs:complexType>
            <xs:all>
              <xs:element name="sku" type="xs:string"/>
              <xs:element name="count" type="xs:nonNegativeInteger"/>
              <xs:element name="bin" type="binType" minOccurs="0"/>
            </xs:all>
            <xs:attribute name="id" type="xs:string" use="required"/>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>`

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run validates the documents below and an AONBench pair, printing to w.
func run(w io.Writer) error {
	schema, err := xsd.ParseSchema([]byte(inventorySchema))
	if err != nil {
		return err
	}

	docs := map[string]string{
		"valid": `<inventory>
			<site>warehouse-7</site>
			<audited>2007-03-14</audited>
			<entry id="e1"><sku>A-100</sku><count>12</count><bin>bulk</bin></entry>
			<entry id="e2"><count>3</count><sku>B-200</sku></entry>
		</inventory>`,
		"bad enumeration": `<inventory>
			<site>warehouse-7</site>
			<entry id="e1"><sku>A-100</sku><count>12</count><bin>freezer</bin></entry>
		</inventory>`,
		"missing required attribute": `<inventory>
			<site>warehouse-7</site>
			<entry><sku>A-100</sku><count>12</count></entry>
		</inventory>`,
		"bad integer": `<inventory>
			<site>warehouse-7</site>
			<entry id="e1"><sku>A-100</sku><count>minus two</count></entry>
		</inventory>`,
	}

	for name, src := range docs {
		doc, err := xmldom.Parse([]byte(src))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		errs := xsd.Validate(schema, doc)
		if len(errs) == 0 {
			fmt.Fprintf(w, "%-28s VALID\n", name)
			continue
		}
		fmt.Fprintf(w, "%-28s INVALID: %v\n", name, errs[0])
	}

	// The AONBench flow: validate a generated purchase order, then the
	// deliberately corrupted variant the paper uses as a self-check.
	fmt.Fprintln(w)
	orders := workload.OrderSchema()
	good, _ := xmldom.Parse(workload.SOAPMessage(1))
	bad, _ := xmldom.Parse(workload.InvalidSOAPMessage(1))
	fmt.Fprintf(w, "AONBench message:          valid=%v\n", len(xsd.Validate(orders, good)) == 0)
	badErrs := xsd.Validate(orders, bad)
	fmt.Fprintf(w, "modified AONBench message: valid=%v (%v)\n", len(badErrs) == 0, badErrs[0])
	return nil
}
