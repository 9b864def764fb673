package nmad

import (
	"pioman/internal/fabric"
	"pioman/internal/simtime"
)

// This file adapts the classic frame Drivers (mem, TCP) to the fabric
// provider layer, so a Gate built from Drivers and a Gate built from
// fabric endpoints run the same code path: NewGate hands a mem driver
// its own endpoint (memEndpoint, frames plus an RMA face) and wraps
// every other driver in a frame-only driverEndpoint.

// Assumed capability envelopes for the classic drivers. The paper's
// NewMadeleine samples each rail's latency/bandwidth at startup; here
// the envelopes are static per driver kind, chosen so an in-process
// rail outranks a TCP rail for small messages and the two split large
// payloads evenly when paired with themselves.
var (
	memCaps    = fabric.Capabilities{Latency: 200 * simtime.Nanosecond, Bandwidth: 8e9, MaxInject: 16 << 10}
	driverCaps = map[string]fabric.Capabilities{
		"mem": memCaps,
		"tcp": {Latency: 30 * simtime.Microsecond, Bandwidth: 1e9, MaxInject: 8 << 10},
	}
)

// capsForDriver returns the assumed envelope for a driver, defaulting
// to a generic middle-of-the-road rail for unknown kinds.
func capsForDriver(d Driver) fabric.Capabilities {
	if caps, ok := driverCaps[d.Name()]; ok {
		return caps
	}
	return fabric.Capabilities{Latency: simtime.Microsecond, Bandwidth: 1e9, MaxInject: 8 << 10}
}

// WrapDriver adapts a classic frame Driver into a fabric.Endpoint with
// the given capability envelope, for mixing classic rails with fabric
// rails in one gate. Driver frames carry exactly one decoded header —
// imm bytes past it are dropped — so the envelope always declares
// NoExt regardless of what the caller passed.
func WrapDriver(d Driver, caps fabric.Capabilities) fabric.Endpoint {
	caps.NoExt = true
	return &driverEndpoint{d: d, caps: caps}
}

// frameEndpoint is the package-internal fast path of the classic
// rails: the gate moves decoded Headers straight through, skipping the
// imm encode/decode round-trip and its allocation, so the classic
// rails keep their codec-free frame path (§IV-B zero-allocation
// submission). External fabric endpoints use the generic byte-
// oriented Send/Poll instead.
type frameEndpoint interface {
	// SendFrame transmits one decoded frame with its imm extension
	// (an RTS pull offer); rails that declare NoExt drop ext.
	SendFrame(hdr Header, ext, payload []byte) error
	// PollFrame pops the next received frame.
	PollFrame() (Frame, bool, error)
	// PollRead pops the next RMA read completion.
	PollRead() (fabric.Event, bool, error)
}

// driverEndpoint is the adapter provider: fabric messages map 1:1 onto
// driver frames, with the immediate bytes carrying the encoded nmad
// header.
type driverEndpoint struct {
	d    Driver
	caps fabric.Capabilities
}

// Provider names the backend after the wrapped driver.
func (ep *driverEndpoint) Provider() string { return ep.d.Name() }

// Capabilities returns the assumed envelope.
func (ep *driverEndpoint) Capabilities() fabric.Capabilities { return ep.caps }

// SendFrame hands a decoded frame straight to the driver (the
// frameEndpoint fast path); the driver carries no extension.
func (ep *driverEndpoint) SendFrame(hdr Header, _, payload []byte) error {
	return ep.d.Send(hdr, payload)
}

// PollFrame pops the next driver frame (the frameEndpoint fast path).
func (ep *driverEndpoint) PollFrame() (Frame, bool, error) {
	return ep.d.Poll()
}

// PollRead reports nothing: a wrapped driver cannot read.
func (ep *driverEndpoint) PollRead() (fabric.Event, bool, error) {
	return fabric.Event{}, false, nil
}

// Send decodes the immediate bytes back into a frame header and hands
// the frame to the driver.
func (ep *driverEndpoint) Send(imm, payload []byte) error {
	hdr, err := decodeHeader(imm)
	if err != nil {
		return err
	}
	return ep.d.Send(hdr, payload)
}

// Poll pops the next driver frame as an EventRecv.
func (ep *driverEndpoint) Poll() (fabric.Event, bool, error) {
	f, ok, err := ep.d.Poll()
	if err != nil || !ok {
		return fabric.Event{}, false, err
	}
	imm := make([]byte, headerBytes)
	f.Hdr.encode(imm)
	return fabric.Event{Kind: fabric.EventRecv, Imm: imm, Payload: f.Payload, From: -1}, true, nil
}

// Backlog is always zero: the classic drivers complete sends before
// returning, so they never accumulate posted-but-incomplete work.
func (ep *driverEndpoint) Backlog() int { return 0 }

// Close shuts the wrapped driver down.
func (ep *driverEndpoint) Close() error { return ep.d.Close() }
