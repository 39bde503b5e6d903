package core

import (
	"bytes"
	"crypto/ecdh"
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/tactic-icn/tactic/internal/names"
)

// Binary codecs for the TACTIC message types that cross the wire in a
// real deployment: content objects (meta + payload + signature),
// registration requests, and registration responses. The tag codec
// lives in tag.go. All encodings share the same conventions: a one-byte
// version, big-endian fixed-width integers, and 16-bit length prefixes
// for variable fields (names, payloads, signatures).

const (
	contentEncodingVersion  = 1
	regReqEncodingVersion   = 1
	regRespEncodingVersion  = 1
	kemPublicKeyWireSize    = 32 // X25519 public key
	maxEncodedFieldSize     = 1 << 16
	maxEncodedPayloadFields = 1 << 16
)

// EncodeContent serialises a content object. A content that holds its
// encoding (decoded off the wire, or copied by CopyContent) returns it;
// callers must not mutate the result.
func EncodeContent(c *Content) ([]byte, error) {
	if len(c.enc) > 0 {
		return c.enc, nil
	}
	return appendContent(nil, c)
}

// appendContent appends c's encoding, built from its fields, to dst,
// growing it at most once.
func appendContent(dst []byte, c *Content) ([]byte, error) {
	name := c.Meta.Name.String()
	prov := c.Meta.ProviderKey.String()
	if len(name) >= maxEncodedFieldSize || len(prov) >= maxEncodedFieldSize ||
		len(c.Payload) >= maxEncodedPayloadFields || len(c.Signature) >= maxEncodedFieldSize {
		return nil, fmt.Errorf("core: content %s field exceeds encoding limit", c.Meta.Name)
	}
	dst = slices.Grow(dst, 11+len(name)+len(prov)+len(c.Payload)+len(c.Signature))
	dst = append(dst, contentEncodingVersion)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(name)))
	dst = append(dst, name...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(c.Meta.Level))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(prov)))
	dst = append(dst, prov...)
	dst = appendLenPrefixed(dst, c.Payload)
	dst = appendLenPrefixed(dst, c.Signature)
	return dst, nil
}

// DecodeContent reverses EncodeContent into a new Content; it is
// DecodeContentInto on a fresh target.
func DecodeContent(b []byte) (*Content, error) {
	c := new(Content)
	if err := DecodeContentInto(c, b); err != nil {
		return nil, err
	}
	return c, nil
}

// DecodeContentInto reverses EncodeContent into c, whose every field is
// overwritten (on error c holds no usable content). The decoded content
// holds one private copy of its encoding, written into the buffer c
// already owns when it is large enough: Payload and Signature are views
// into it, capped at their own length so an append through either
// reallocates instead of running into the next field. Whatever c held
// before — its payload included — is gone, so nothing may still point
// into it. The two names resolve through the intern table behind
// names.ParseBytes, so a content seen before costs the copy alone, and
// none at all into a target that held one as large.
func DecodeContentInto(c *Content, b []byte) error {
	if err := decodeContent(c, b); err != nil {
		c.Reset()
		return err
	}
	return nil
}

// decodeContent is DecodeContentInto, writing c only once b has parsed.
func decodeContent(c *Content, b []byte) error {
	d := decoder{buf: b}
	version, err := d.byte()
	if err != nil {
		return err
	}
	if version != contentEncodingVersion {
		return fmt.Errorf("%w: content version %d", ErrTagVersion, version)
	}
	nameRaw, err := d.lenPrefixed()
	if err != nil {
		return err
	}
	level, err := d.uint16()
	if err != nil {
		return err
	}
	provRaw, err := d.lenPrefixed()
	if err != nil {
		return err
	}
	payload, err := d.lenPrefixed()
	if err != nil {
		return err
	}
	sig, err := d.lenPrefixed()
	if err != nil {
		return err
	}
	name, err := names.ParseBytes(nameRaw)
	if err != nil {
		return fmt.Errorf("core: decode content name: %w", err)
	}
	prov, err := names.ParseBytes(provRaw)
	if err != nil {
		return fmt.Errorf("core: decode content provider key: %w", err)
	}
	c.enc = append(c.enc[:0], b[:d.off]...)
	c.Meta.Name, c.Meta.Level, c.Meta.ProviderKey = name, AccessLevel(level), prov
	c.setViews(len(payload), len(sig))
	return nil
}

// setViews points Payload and Signature into c.enc, the encoding of a
// content whose payload and signature are that long: the signature is
// the encoding's last field and the payload ends at its length prefix.
func (c *Content) setViews(payload, sig int) {
	end := len(c.enc)
	sigStart := end - sig
	payEnd := sigStart - 2
	c.Payload = c.enc[payEnd-payload : payEnd : payEnd]
	c.Signature = c.enc[sigStart:end:end]
}

// CopyContent overwrites dst with src, sharing no bytes with it: dst
// ends up holding src's encoding in the buffer dst already owns (grown
// only when too small), with Payload and Signature as views into it, as
// a decoded content has. A content built locally is encoded on the way
// in; one whose fields exceed the wire's limits gets private copies of
// its payload and signature instead. Whatever dst held before is gone,
// so nothing may still point into it. It is how a content store keeps a
// chunk and hands out a hit.
func CopyContent(dst, src *Content) {
	if len(src.enc) > 0 {
		dst.enc = append(dst.enc[:0], src.enc...)
	} else if enc, err := appendContent(dst.enc[:0], src); err == nil {
		dst.enc = enc
	} else {
		dst.enc = dst.enc[:0]
		dst.Meta = src.Meta
		dst.Payload = bytes.Clone(src.Payload)
		dst.Signature = bytes.Clone(src.Signature)
		return
	}
	dst.Meta = src.Meta
	dst.setViews(len(src.Payload), len(src.Signature))
}

// Clone returns a new Content holding a copy of c (CopyContent).
func (c *Content) Clone() *Content {
	dst := new(Content)
	CopyContent(dst, c)
	return dst
}

// Reset empties c but keeps the buffer its encoding lived in, for the
// next DecodeContentInto or CopyContent into c.
func (c *Content) Reset() {
	*c = Content{enc: c.enc[:0]}
}

// EncodeRegistrationRequest serialises a registration request.
func EncodeRegistrationRequest(r *RegistrationRequest) ([]byte, error) {
	cli := r.ClientKey.String()
	if len(cli) >= maxEncodedFieldSize || len(r.Credential) >= maxEncodedFieldSize {
		return nil, fmt.Errorf("core: registration field exceeds encoding limit")
	}
	buf := make([]byte, 0, 32+len(cli)+len(r.Credential)+kemPublicKeyWireSize)
	buf = append(buf, regReqEncodingVersion)
	buf = appendLenPrefixed(buf, []byte(cli))
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.AccessPath))
	buf = binary.BigEndian.AppendUint64(buf, r.Nonce)
	buf = appendLenPrefixed(buf, r.Credential)
	if r.KEMPublic != nil {
		buf = append(buf, 1)
		buf = append(buf, r.KEMPublic.Bytes()...)
	} else {
		buf = append(buf, 0)
	}
	return buf, nil
}

// DecodeRegistrationRequest reverses EncodeRegistrationRequest.
func DecodeRegistrationRequest(b []byte) (*RegistrationRequest, error) {
	d := decoder{buf: b}
	version, err := d.byte()
	if err != nil {
		return nil, err
	}
	if version != regReqEncodingVersion {
		return nil, fmt.Errorf("%w: registration version %d", ErrTagVersion, version)
	}
	cliRaw, err := d.lenPrefixed()
	if err != nil {
		return nil, err
	}
	ap, err := d.uint64()
	if err != nil {
		return nil, err
	}
	nonce, err := d.uint64()
	if err != nil {
		return nil, err
	}
	cred, err := d.lenPrefixed()
	if err != nil {
		return nil, err
	}
	hasKEM, err := d.byte()
	if err != nil {
		return nil, err
	}
	out := &RegistrationRequest{
		AccessPath: AccessPath(ap),
		Nonce:      nonce,
		Credential: append([]byte(nil), cred...),
	}
	out.ClientKey, err = names.Parse(string(cliRaw))
	if err != nil {
		return nil, fmt.Errorf("core: decode registration client key: %w", err)
	}
	if hasKEM == 1 {
		raw, err := d.bytes(kemPublicKeyWireSize)
		if err != nil {
			return nil, err
		}
		pub, err := ecdh.X25519().NewPublicKey(raw)
		if err != nil {
			return nil, fmt.Errorf("core: decode registration kem key: %w", err)
		}
		out.KEMPublic = pub
	}
	return out, nil
}

// EncodeRegistrationResponse serialises a registration response.
func EncodeRegistrationResponse(r *RegistrationResponse) ([]byte, error) {
	if r.Tag == nil {
		return nil, fmt.Errorf("core: registration response without tag")
	}
	tagEnc := r.Tag.Encode()
	if len(tagEnc) >= maxEncodedFieldSize || len(r.WrappedContentKey) >= maxEncodedFieldSize {
		return nil, fmt.Errorf("core: registration response field exceeds encoding limit")
	}
	buf := make([]byte, 0, 8+len(tagEnc)+len(r.WrappedContentKey))
	buf = append(buf, regRespEncodingVersion)
	buf = appendLenPrefixed(buf, tagEnc)
	buf = appendLenPrefixed(buf, r.WrappedContentKey)
	return buf, nil
}

// DecodeRegistrationResponse reverses EncodeRegistrationResponse.
func DecodeRegistrationResponse(b []byte) (*RegistrationResponse, error) {
	d := decoder{buf: b}
	version, err := d.byte()
	if err != nil {
		return nil, err
	}
	if version != regRespEncodingVersion {
		return nil, fmt.Errorf("%w: registration response version %d", ErrTagVersion, version)
	}
	tagRaw, err := d.lenPrefixed()
	if err != nil {
		return nil, err
	}
	wrapped, err := d.lenPrefixed()
	if err != nil {
		return nil, err
	}
	tag, err := DecodeTag(tagRaw)
	if err != nil {
		return nil, err
	}
	out := &RegistrationResponse{Tag: tag}
	if len(wrapped) > 0 {
		out.WrappedContentKey = append([]byte(nil), wrapped...)
	}
	return out, nil
}

// bytes reads an exact number of raw bytes from the decoder.
func (d *decoder) bytes(n int) ([]byte, error) {
	if err := d.need(n); err != nil {
		return nil, err
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}
