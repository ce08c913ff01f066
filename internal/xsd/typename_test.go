package xsd

import "testing"

func TestTypeNameHelper(t *testing.T) {
	s := MustParseSchema(`<xs:schema xmlns:xs="x"><xs:element name="purchaseOrder"><xs:complexType/></xs:element></xs:schema>`)
	if s.Elements["purchaseOrder"].typeName() != "anonymous" {
		t.Error("inline type should report anonymous")
	}
}
