/**
 * @file
 * QSV1 — the compile service's length-prefixed framed wire protocol
 * (docs/FORMATS.md has the normative spec and a worked hex example).
 *
 * One frame is
 *
 *   offset size  field
 *   0      4     magic "QSV1"
 *   4      2     u16 protocol version (currently 3)
 *   6      2     u16 message type (MsgType)
 *   8      4     u32 payload byte length
 *   12     len   payload (a message codec below)
 *   12+len 8     u64 FNV-1a checksum of the payload bytes
 *
 * with every integer little-endian (util/serialize.hh). The payload
 * length is capped (kDefaultMaxPayloadBytes) so a malicious or
 * corrupt length prefix cannot make the server allocate unboundedly.
 * One header decoder and one checksum check serve both the socket
 * receive path (recvFrame) and decodeFrame. Payloads decode with
 * ByteReader, so malformed input throws SerializeError — the decoder
 * contract shared with the QSC1 cache and QRJ1 journal formats.
 * Requests always travel client to server; each earns exactly one
 * reply frame (the matching *Reply type, or Error).
 */

#ifndef QUEST_SERVICE_PROTOCOL_HH
#define QUEST_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "service/job.hh"
#include "util/serialize.hh"

namespace quest::service {

inline constexpr uint8_t kFrameMagic[4] = {'Q', 'S', 'V', '1'};
// Version 2 appended the selection-mode byte to CompileOptions;
// version 3 added the tenant/submission-key strings to Submit, the
// retry-hint fields to SubmitReply, and the Retry frame (bounded
// result waits). An old peer gets a clean version-mismatch error,
// not a garbled decode.
inline constexpr uint16_t kProtocolVersion = 3;
inline constexpr size_t kFrameHeaderBytes = 12;
inline constexpr size_t kFrameTrailerBytes = 8;

/** Admission cap on one frame's payload (16 MiB covers any QASM a
 *  single job realistically ships; larger lengths are rejected). */
inline constexpr uint32_t kDefaultMaxPayloadBytes = 16u << 20;

/** Frame types. Requests are odd, their replies even; Error replies
 *  to any request the server could not serve. */
enum class MsgType : uint16_t {
    Submit = 1,
    SubmitReply = 2,
    Status = 3,
    StatusReply = 4,
    Result = 5,
    ResultReply = 6,
    Cancel = 7,
    CancelReply = 8,
    Stats = 9,
    StatsReply = 10,
    Shutdown = 11,
    ShutdownReply = 12,
    Error = 13,
    Retry = 14, //!< reply only: poll again (bounded result wait ran out)
};

/** Stable lower-case name ("submit", "status-reply", ...). */
const char *msgTypeName(MsgType type);

/** One decoded frame: type plus raw payload bytes. */
struct Frame
{
    MsgType type = MsgType::Error;
    std::vector<uint8_t> payload;
};

/** Encode one complete frame (header + payload + checksum). */
std::vector<uint8_t> encodeFrame(MsgType type,
                                 const std::vector<uint8_t> &payload);

/** Which header check a frame failed. */
enum class FrameDefect {
    None,
    BadMagic,
    VersionMismatch,
    Oversized, //!< length prefix exceeds the payload cap
};

/** A decoded frame header: type and payload length when defect is
 *  None, else a message naming the defect. */
struct FrameHeader
{
    FrameDefect defect = FrameDefect::None;
    std::string error;
    MsgType type = MsgType::Error;
    uint32_t length = 0;
};

/** Decode and check the kFrameHeaderBytes at @p bytes: magic,
 *  version, then the payload cap. Never throws. */
FrameHeader decodeFrameHeader(const uint8_t *bytes,
                              uint32_t maxPayloadBytes);

/** True iff the kFrameTrailerBytes after the @p length payload bytes
 *  at @p body hold the payload's checksum. */
bool frameChecksumMatches(const uint8_t *body, uint32_t length);

/**
 * Decode exactly one frame from @p size bytes at @p data. Throws
 * SerializeError on bad magic, version mismatch, an oversized or
 * truncated payload, a trailing-byte surplus, or a checksum
 * mismatch; the message names the defect.
 */
Frame decodeFrame(const uint8_t *data, size_t size,
                  uint32_t maxPayloadBytes = kDefaultMaxPayloadBytes);

// ---- message payloads --------------------------------------------

/** Submit one compile job. */
struct SubmitRequest
{
    int32_t priority = 0;        //!< higher pops first
    double deadlineSeconds = 0;  //!< per-job wall-clock budget (0 = none)
    CompileOptions options;

    /** Fair-share identity: quotas and weighted round-robin group
     *  jobs by this string. Empty is itself a tenant (the anonymous
     *  one), so untagged clients share one fair-share slot. */
    std::string tenant;

    /**
     * Idempotency key. When non-empty, a resubmit carrying the same
     * (tenant, key) pair returns the already-admitted job instead of
     * running a second copy — a client that lost the connection
     * after the server's Submit ack can blindly retry. Empty
     * disables dedup (every submit is a fresh job).
     */
    std::string submissionKey;

    std::string qasm;            //!< OpenQASM 2.0 source

    void encode(ByteWriter &w) const;
    static SubmitRequest decode(ByteReader &r);
};

struct SubmitReply
{
    uint64_t jobId = 0;    //!< 0 when rejected
    bool accepted = false;
    JobState state = JobState::Rejected;
    std::string detail;    //!< rejection reason when !accepted

    /** True when submissionKey matched an existing job: jobId/state
     *  describe that job and nothing new was enqueued. */
    bool deduplicated = false;

    /** Backoff hint on a shed (quota/queue-full) rejection: seconds
     *  the client should wait before retrying. Deterministic — a
     *  pure function of the tenant's standing load at rejection. */
    double retryAfterSeconds = 0;

    void encode(ByteWriter &w) const;
    static SubmitReply decode(ByteReader &r);
};

struct StatusRequest
{
    uint64_t jobId = 0;

    void encode(ByteWriter &w) const;
    static StatusRequest decode(ByteReader &r);
};

/** One job's externally visible state (also the StatusReply body). */
struct JobStatus
{
    uint64_t jobId = 0;
    bool known = false;          //!< false: the server never saw this id
    JobState state = JobState::Rejected;
    int32_t exitCode = -1;       //!< exitCodeForJobState (terminal only)
    uint32_t queuePosition = 0;  //!< 0-based, Queued only
    uint64_t completionSeq = 0;  //!< 1-based completion order (terminal)
    std::string detail;          //!< failure/cancellation diagnostic

    void encode(ByteWriter &w) const;
    static JobStatus decode(ByteReader &r);
};

struct ResultRequest
{
    uint64_t jobId = 0;
    bool wait = true;           //!< block until the job is terminal
    double timeoutSeconds = 0;  //!< cap on the wait (0 = unbounded)

    void encode(ByteWriter &w) const;
    static ResultRequest decode(ByteReader &r);
};

/** One selected ensemble sample, as QASM text. */
struct SampleResult
{
    std::string qasm;
    uint64_t cnotCount = 0;
    double distanceBound = 0;
};

struct ResultReply
{
    JobStatus status;

    // Summary fields (valid when status.state == Done).
    uint32_t qubits = 0;
    uint64_t originalCnots = 0;
    uint64_t blocks = 0;
    uint64_t okBlocks = 0;
    double threshold = 0;
    std::vector<SampleResult> samples;

    /** Per-job metrics snapshot streamed back at completion: the
     *  process-wide registry's counters/gauges at the moment the job
     *  finished (name, value), sorted by name. */
    std::vector<std::pair<std::string, uint64_t>> metrics;

    void encode(ByteWriter &w) const;
    static ResultReply decode(ByteReader &r);
};

struct CancelRequest
{
    uint64_t jobId = 0;

    void encode(ByteWriter &w) const;
    static CancelRequest decode(ByteReader &r);
};

/** What a cancel request achieved. */
enum class CancelOutcome : uint8_t {
    Unknown = 0,     //!< no such job
    Dequeued = 1,    //!< removed from the queue before it ever ran
    Signalled = 2,   //!< running; its CancelToken has been fired
    AlreadyDone = 3, //!< already terminal; nothing to cancel
};

struct CancelReply
{
    uint64_t jobId = 0;
    CancelOutcome outcome = CancelOutcome::Unknown;

    void encode(ByteWriter &w) const;
    static CancelReply decode(ByteReader &r);
};

/** Server-wide statistics: the metrics registry's counters and
 *  gauges (name, value), sorted by name. */
struct StatsReply
{
    std::vector<std::pair<std::string, uint64_t>> stats;

    void encode(ByteWriter &w) const;
    static StatsReply decode(ByteReader &r);
};

struct ShutdownRequest
{
    bool drain = true; //!< finish queued jobs first vs cancel them

    void encode(ByteWriter &w) const;
    static ShutdownRequest decode(ByteReader &r);
};

/**
 * "Not done yet — ask again." The reply to a `result --wait`
 * request whose job outlived the server's bounded wait
 * (ServerConfig::maxResultWaitSeconds): instead of pinning a
 * connection thread until the job finishes, the server returns the
 * current status plus a retry hint and the client polls again.
 * QuestClient::result() loops on these transparently.
 */
struct RetryReply
{
    JobStatus status;
    double retryAfterSeconds = 0; //!< suggested poll delay (0 = now)

    void encode(ByteWriter &w) const;
    static RetryReply decode(ByteReader &r);
};

/** The server's reply to a request it could not serve. */
struct ErrorReply
{
    int32_t exitCode = 0; //!< PR-5 taxonomy code for the failure
    std::string message;

    void encode(ByteWriter &w) const;
    static ErrorReply decode(ByteReader &r);
};

// ---- payload helpers ---------------------------------------------

template <typename Message>
std::vector<uint8_t>
encodePayload(const Message &message)
{
    ByteWriter w;
    message.encode(w);
    return w.take();
}

/** Decode a whole payload as @p Message; trailing bytes are a
 *  malformed-frame error, like every other length surplus. */
template <typename Message>
Message
decodePayload(const std::vector<uint8_t> &payload)
{
    ByteReader r(payload);
    Message message = Message::decode(r);
    if (!r.atEnd()) {
        throw SerializeError(
            "trailing bytes after message payload: " +
            std::to_string(r.remaining()) + " unread");
    }
    return message;
}

} // namespace quest::service

#endif // QUEST_SERVICE_PROTOCOL_HH
