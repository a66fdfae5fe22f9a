// Package protocol defines the wire messages VDCE components exchange:
// host-selection requests between Application Schedulers (the AFG
// multicast of Fig. 2), monitoring and failure reports flowing from
// Group Managers to Site Managers, execution records closing the
// prediction feedback loop, and the envelope format Data Manager
// channels use for inter-task payloads. Transport is Go's net/rpc over
// TCP for control traffic and length + CRC-32 framed TCP streams (the
// shared internal/frame format) for data channels.
package protocol

import (
	"encoding/binary"
	"errors"
	"slices"
	"time"

	"vdce/internal/core"
	"vdce/internal/frame"
	"vdce/internal/repository"
)

// SiteServiceName is the rpc service name every VDCE server registers.
const SiteServiceName = "Site"

// HostSelectionRequest carries a JSON-encoded application flow graph to a
// remote Application Scheduler (Fig. 2 step 3, the AFG multicast).
type HostSelectionRequest struct {
	GraphJSON []byte
}

// HostSelectionResponse returns the site's host-selection output: the
// best machine(s) and predicted execution time per task (Fig. 2 step 5).
// Keys are task IDs.
type HostSelectionResponse struct {
	Site    string
	Choices map[int]core.HostChoice
}

// WorkloadBatch is a Group Manager's filtered workload report: only the
// hosts whose load changed considerably since the last report.
type WorkloadBatch struct {
	Site    string
	Group   string
	Samples []HostSample
}

// HostSample pairs a host with one monitor measurement.
type HostSample struct {
	Host   string
	Sample repository.WorkloadSample
}

// FailureNotice reports an echo-detected host failure.
type FailureNotice struct {
	Host     string
	Group    string
	Detected time.Time
}

// RecoveryNotice reports a host answering echoes again.
type RecoveryNotice struct {
	Host     string
	Group    string
	Detected time.Time
}

// ExecutionRecord carries a completed task execution back to the Site
// Manager, which updates the task-performance database.
type ExecutionRecord struct {
	Task    string
	Host    string
	Elapsed time.Duration
	At      time.Time
}

// Ack is the empty reply used by notification-style RPCs.
type Ack struct{}

// ResourceQuery selects hosts from the resource-performance database.
type ResourceQuery struct {
	// Group filters to one group when non-empty.
	Group string
	// UpOnly drops hosts marked down.
	UpOnly bool
}

// ResourceList is the query result.
type ResourceList struct {
	Hosts []repository.ResourceInfo
}

// DataEnvelope is one inter-task payload on a Data Manager channel:
// which application run it belongs to, which graph edge it travels, and
// the encoded value (tasklib.EncodeValue). On the wire it is the payload
// of one frame (internal/frame) laid out as
//
//	uvarint len(AppID) | AppID | FromTask u32 | ToTask u32 | ToPort u32 | Payload
//
// with the task and port fields little-endian and fixed-width, so a
// sender can readdress a sealed frame for the next edge of a fan-out
// without encoding the value again. Many envelopes share one persistent
// connection; the receiver routes each by (AppID, ToTask).
type DataEnvelope struct {
	AppID    string
	FromTask int
	ToTask   int
	ToPort   int
	Payload  []byte
}

// MaxDataFrame bounds one data frame's payload at 1 GiB, gob's message
// limit, so no value a gob channel could carry is refused. A declared
// length beyond it is corruption.
const MaxDataFrame = 1 << 30

// errBadEnvelope reports a frame payload too short for its routing
// fields.
var errBadEnvelope = errors.New("protocol: malformed data envelope")

// dataRoutingLen is the size of the fixed-width FromTask, ToTask and
// ToPort fields.
const dataRoutingLen = 12

// BeginDataFrame appends an unsealed frame holding env's routing fields
// (everything but Payload) to dst, with room for payloadLen more bytes.
// The caller appends exactly the payload, then seals the frame with
// frame.Seal(buf, start); env.Payload is ignored.
func BeginDataFrame(dst []byte, env *DataEnvelope, payloadLen int) (buf []byte, start int) {
	n := frame.Header + binary.MaxVarintLen64 + len(env.AppID) + dataRoutingLen + payloadLen
	buf, start = frame.Begin(slices.Grow(dst, n))
	buf = binary.AppendUvarint(buf, uint64(len(env.AppID)))
	buf = append(buf, env.AppID...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(env.FromTask))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(env.ToTask))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(env.ToPort))
	return buf, start
}

// ReaddressDataFrame rewrites the destination of the sealed data frame
// fr in place and seals it again.
func ReaddressDataFrame(fr []byte, toTask, toPort int) error {
	_, off, err := routing(fr[frame.Header:])
	if err != nil {
		return err
	}
	at := frame.Header + off + 4
	binary.LittleEndian.PutUint32(fr[at:], uint32(toTask))
	binary.LittleEndian.PutUint32(fr[at+4:], uint32(toPort))
	frame.Seal(fr, 0)
	return nil
}

// routing locates a frame payload's app ID, p[id:off], and the routing
// fields that start at off.
func routing(p []byte) (id, off int, err error) {
	n, w := binary.Uvarint(p)
	if w <= 0 || n > uint64(len(p)-w) || uint64(len(p)-w)-n < dataRoutingLen {
		return 0, 0, errBadEnvelope
	}
	return w, w + int(n), nil
}

// ParseDataEnvelope parses a verified frame payload. env.Payload aliases
// p.
func ParseDataEnvelope(p []byte) (DataEnvelope, error) {
	id, off, err := routing(p)
	if err != nil {
		return DataEnvelope{}, err
	}
	r := p[off:]
	return DataEnvelope{
		AppID:    string(p[id:off]),
		FromTask: int(binary.LittleEndian.Uint32(r[0:])),
		ToTask:   int(binary.LittleEndian.Uint32(r[4:])),
		ToPort:   int(binary.LittleEndian.Uint32(r[8:])),
		Payload:  r[dataRoutingLen:],
	}, nil
}

// DSMRequest is one distributed-shared-memory operation against a site's
// DSM service (the paper's §5 shared-memory extension). Op is "read",
// "write", or "cas".
type DSMRequest struct {
	Op    string
	Key   string
	Value []byte
	Old   []byte // cas only
}

// DSMReply returns the operation outcome. For reads, Found reports
// whether the page exists; for cas, Swapped reports success and Value
// carries the current value on failure.
type DSMReply struct {
	Value   []byte
	Found   bool
	Swapped bool
}
