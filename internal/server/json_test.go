package server

import (
	"encoding/json"
	"strings"
	"testing"
	"unicode/utf8"
)

// appendJSONStringByByte is the per-byte encoder appendJSONString replaced,
// kept as the oracle its output must match byte for byte.
func appendJSONStringByByte(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			switch {
			case c == '"' || c == '\\':
				dst = append(dst, '\\', c)
			case c == '\n':
				dst = append(dst, '\\', 'n')
			case c == '\r':
				dst = append(dst, '\\', 'r')
			case c == '\t':
				dst = append(dst, '\\', 't')
			case c < 0x20:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			default:
				dst = append(dst, c)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			continue
		}
		dst = append(dst, s[i:i+size]...)
		i += size
	}
	return append(dst, '"')
}

// FuzzJSONString: the word-at-a-time encoder writes exactly what the
// per-byte one wrote, after any prefix already in the buffer, and the
// result is valid JSON.
func FuzzJSONString(f *testing.F) {
	for _, s := range []string{
		"", "plain", "1234567", "12345678", "123456789", "12345678901234567",
		"abcdefg\"hijklmno\\pqrstuvw\nxyz", "abcdefg\xffhijklmno", "abcdefgh\xff",
		"abcdefg✓hijklmn", "line\u2028sep\u2029", "\x00\x1f\x20\x7f\x80\xbf\xc0\xff",
		strings.Repeat("safe bytes ", 9) + "\t",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := appendJSONStringByByte([]byte("x"), s)
		got := appendJSONString([]byte("x"), s)
		if string(got) != string(want) {
			t.Fatalf("%q: got %s, want %s", s, got, want)
		}
		if !json.Valid(got[1:]) {
			t.Fatalf("%q: invalid JSON %s", s, got[1:])
		}
	})
}
