// Package xmltest is test support for the packages that consume XML
// trees: the one seed corpus the differential fuzzers of xmldom, xsd and xj
// start from.
package xmltest

import "repro/internal/workload"

// Corpus is the seeded differential corpus: workload-generator output
// (the traffic the gateway actually parses) plus grammar edge cases
// covering every accept/reject path of the tokenizer.
func Corpus() [][]byte {
	docs := [][]byte{
		// Workload traffic at a few sizes and indices (i%2 flips the CBR
		// routing branch; seeded variants perturb content).
		workload.SOAPMessage(0),
		workload.SOAPMessage(1),
		workload.SOAPMessageSized(2, 512),
		workload.SOAPMessageSeeded(3, 2048, 7),
		workload.InvalidSOAPMessage(4),
		workload.InvalidSOAPMessageSized(5, 1024),
	}
	edges := []string{
		// Well-formed shapes.
		`<a/>`,
		`<a></a>`,
		`<a b="1" c='2'>x</a>`,
		`<?xml version="1.0"?><a/>`,
		`<?xml version="1.0"?><!--c--><!DOCTYPE a [<!ELEMENT a EMPTY>]><a/><!--tail-->`,
		`<a><!--c--><?pi data?><![CDATA[<raw&>]]></a>`,
		`<a>&lt;&gt;&amp;&quot;&apos;&#65;&#x41;</a>`,
		`<a b="&lt;v&gt;"/>`,
		`<ns:a xmlns:ns="u"><ns:b/></ns:a>`,
		`<a xmlns="d"><b xmlns=""/></a>`,
		"  \r\n\t<a> mixed <b>text</b> runs </a>\n ",
		`<a b="1"c="2"/>`, // no space between attrs — accepted quirk
		`<?xmlfoo?><a/>`,  // decl prefix-match quirk
		`<a>x<b/>y<b/>z</a>`,
		`<a><![CDATA[]]></a>`, // an empty CDATA section is no text node
		`<a>x<![CDATA[]]>y</a>`,
		// Rejections.
		``,
		`   `,
		`<a>`,
		`<a></b>`,
		`<a`,
		`<a b/>`,
		`<a b=>`,
		`<a b="1" b="2"/>`,
		`<a b="<"/>`,
		`<a b="1/>`,
		`<a>&unknown;</a>`,
		`<a>&lt</a>`,
		`<a>&#xZZ;</a>`,
		`<a>&#;</a>`,
		`<a/><b/>`,
		`<a/>text`,
		`<a/><?pi?>`,
		`<!--only a comment-->`,
		`<?foo?><a/>`,
		`<!DOCTYPE a`,
		`<?xml version="1.0"`,
		`<a><!--unterminated</a>`,
		`<a><![CDATA[unterminated</a>`,
		`<a><?pi unterminated</a>`,
		`<!a/>`,
		`<a ="v"/>`,
		`<a>&toolongentityname;</a>`,
	}
	for _, e := range edges {
		docs = append(docs, []byte(e))
	}
	return docs
}
