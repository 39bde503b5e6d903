package core

import (
	"crypto/ecdh"
	"encoding/binary"
	"fmt"

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

// EncodeContent serialises a content object. Contents decoded from the
// wire return their cached encoding; callers must not mutate the result.
func EncodeContent(c *Content) ([]byte, error) {
	if c.enc != nil {
		return c.enc, nil
	}
	name := c.Meta.Name.String()
	prov := c.Meta.ProviderKey.String()
	if len(name) >= maxEncodedFieldSize || len(prov) >= maxEncodedFieldSize ||
		len(c.Payload) >= maxEncodedPayloadFields || len(c.Signature) >= maxEncodedFieldSize {
		return nil, fmt.Errorf("core: content %s field exceeds encoding limit", c.Meta.Name)
	}
	buf := make([]byte, 0, 16+len(name)+len(prov)+len(c.Payload)+len(c.Signature))
	buf = append(buf, contentEncodingVersion)
	buf = appendLenPrefixed(buf, []byte(name))
	buf = binary.BigEndian.AppendUint16(buf, uint16(c.Meta.Level))
	buf = appendLenPrefixed(buf, []byte(prov))
	buf = appendLenPrefixed(buf, c.Payload)
	buf = appendLenPrefixed(buf, c.Signature)
	return buf, nil
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
// keeps one private copy of its encoding: Payload and Signature are
// views into it, capped at their own length so an append through either
// reallocates instead of running into the next field. The two names
// resolve through the intern table behind names.ParseBytes, so a content
// seen before costs the copy alone.
func DecodeContentInto(c *Content, b []byte) error {
	*c = Content{}
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
	payloadEnd := d.off
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
	enc := append([]byte(nil), b[:d.off]...)
	*c = Content{
		Meta:      ContentMeta{Name: name, Level: AccessLevel(level), ProviderKey: prov},
		Payload:   enc[payloadEnd-len(payload) : payloadEnd : payloadEnd],
		Signature: enc[d.off-len(sig) : d.off : d.off],
		enc:       enc,
	}
	return nil
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
