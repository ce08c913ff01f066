package httpmsg

import "strings"

// This file keeps the copying request parser the zero-copy one replaced,
// unmetered, as the reference FuzzParseRequestInto holds ParseRequestInto
// to: the same accept/reject decision and the same fields on every input.
// Its strings are copies, so a view bug in the parser shows as a mismatch.

// oracleParser walks src line by line.
type oracleParser struct {
	src []byte
	pos int
}

// oracleParse parses src into a fresh Request with string copies.
func oracleParse(src []byte) (*Request, error) {
	p := &oracleParser{src: src}
	req := &Request{}

	line, err := p.readLine()
	if err != nil {
		return nil, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) != 3 {
		return nil, &parseError{Offset: p.pos, Msg: "malformed request line"}
	}
	req.Method, req.Target, req.Proto = parts[0], parts[1], parts[2]
	switch req.Method {
	case "POST", "GET", "PUT", "HEAD", "DELETE", "OPTIONS":
	default:
		return nil, &parseError{Offset: 0, Msg: "unknown method " + req.Method}
	}
	if !strings.HasPrefix(req.Proto, "HTTP/1.") {
		return nil, &parseError{Offset: 0, Msg: "unsupported protocol " + req.Proto}
	}

	for {
		line, err := p.readLine()
		if err != nil {
			return nil, err
		}
		if line == "" {
			break
		}
		colon := strings.IndexByte(line, ':')
		if colon <= 0 {
			return nil, &parseError{Offset: p.pos, Msg: "malformed header line"}
		}
		name := strings.TrimSpace(line[:colon])
		if name == "" {
			return nil, &parseError{Offset: p.pos, Msg: "malformed header line"}
		}
		req.Headers = append(req.Headers, Header{Name: name, Value: strings.TrimSpace(line[colon+1:])})
	}

	if clen := req.ContentLength(); clen >= 0 {
		if p.pos+clen > len(src) {
			return nil, &parseError{Offset: p.pos, Msg: "truncated body"}
		}
		req.Body = src[p.pos : p.pos+clen]
		p.pos += clen
	}
	return req, nil
}

// readLine returns the next line, copied, without its CRLF (or LF).
func (p *oracleParser) readLine() (string, error) {
	start := p.pos
	for p.pos < len(p.src) {
		if p.src[p.pos] == '\n' {
			line := string(p.src[start:p.pos])
			p.pos++
			return strings.TrimSuffix(line, "\r"), nil
		}
		p.pos++
	}
	return "", &parseError{Offset: start, Msg: "unterminated line"}
}
