//! The binary serve protocol riding inside `MARD` frames.
//!
//! Like the actor–learner `Steps` and `Params` frames, these payloads
//! are fixed-layout little-endian binary, written and read with the
//! shared `marl_dist::wire` helpers. A serve request is a few hundred
//! bytes at high rate, so every encode/decode works against
//! caller-owned reusable buffers — the steady-state request path never
//! allocates.
//!
//! Payload layouts (all integers little-endian). Request and response
//! payloads end in a fixed 24-byte trace-context trailer
//! (`trace_id u64 | span_id u64 | send_ns u64`) so cross-process flow
//! arrows can pair a client's send with the batched forward that served
//! it; untraced callers write [`TraceCtx::NONE`]:
//!
//! ```text
//! KIND_INFER_REQ   req_id u64 | agent u32 | obs_len u32 | obs f32 × obs_len
//!                  | ctx 24 B
//! KIND_INFER_RESP  req_id u64 | epoch u64 | agent u32 | action u32
//!                  | logit_len u32 | logits f32 × logit_len | ctx 24 B
//! KIND_INFER_ERR   req_id u64 | code u32
//! KIND_SERVE_CTL   op u32
//! ```

use marl_dist::wire::{
    self, get_f32s_into, get_u32, get_u64, put_f32s, put_u32, put_u64, KIND_INFER_ERR,
    KIND_INFER_REQ, KIND_INFER_RESP, KIND_SERVE_CTL,
};
use marl_dist::DistError;
use marl_obs::context::{TraceCtx, TRACE_CTX_WIRE_LEN};

/// Control op: drain in-flight requests and shut the server down.
pub const CTL_SHUTDOWN: u32 = 1;
/// Control op: liveness probe (acknowledged, otherwise ignored).
pub const CTL_PING: u32 = 2;

/// Error code: the request named an agent index the model does not have.
pub const ERR_BAD_AGENT: u32 = 1;
/// Error code: the observation length does not match the agent's input.
pub const ERR_BAD_OBS_DIM: u32 = 2;

/// Builds a complete inference-request frame into `frame` (cleared and
/// refilled; capacity is reused, so a warmed buffer allocates nothing).
/// Untraced callers pass [`TraceCtx::NONE`].
pub fn encode_request(req_id: u64, agent: u32, obs: &[f32], ctx: TraceCtx, frame: &mut Vec<u8>) {
    wire::begin_raw_frame(frame);
    put_u64(frame, req_id);
    put_u32(frame, agent);
    put_u32(frame, obs.len() as u32);
    put_f32s(frame, obs);
    ctx.write_to(frame);
    wire::finish_raw_frame(KIND_INFER_REQ, frame);
}

/// Decodes an inference-request payload, copying the observation into
/// `obs` (cleared and refilled in place). Returns
/// `(req_id, agent, ctx)`.
///
/// # Errors
///
/// [`DistError::Protocol`] on truncated or inconsistent payloads.
pub fn decode_request_into(
    payload: &[u8],
    obs: &mut Vec<f32>,
) -> Result<(u64, u32, TraceCtx), DistError> {
    if payload.len() < 16 + TRACE_CTX_WIRE_LEN {
        return Err(DistError::Protocol(format!("infer request too short: {}", payload.len())));
    }
    let req_id = get_u64(payload, 0);
    let agent = get_u32(payload, 8);
    let obs_len = get_u32(payload, 12) as usize;
    let body = &payload[16..];
    if body.len() != obs_len * 4 + TRACE_CTX_WIRE_LEN {
        return Err(DistError::Protocol(format!(
            "infer request obs: declared {obs_len} floats, got {} bytes",
            body.len()
        )));
    }
    let ctx = TraceCtx::read_from(body).expect("length checked above");
    obs.clear();
    get_f32s_into(&body[..obs_len * 4], obs);
    Ok((req_id, agent, ctx))
}

/// Builds a complete inference-response frame into `frame`. The trailer
/// echoes the request's trace context so the client can close the flow.
pub fn encode_response(
    req_id: u64,
    epoch: u64,
    agent: u32,
    action: u32,
    logits: &[f32],
    ctx: TraceCtx,
    frame: &mut Vec<u8>,
) {
    wire::begin_raw_frame(frame);
    put_u64(frame, req_id);
    put_u64(frame, epoch);
    put_u32(frame, agent);
    put_u32(frame, action);
    put_u32(frame, logits.len() as u32);
    put_f32s(frame, logits);
    ctx.write_to(frame);
    wire::finish_raw_frame(KIND_INFER_RESP, frame);
}

/// A decoded inference response (logits land in a caller buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response {
    /// Echoed request id.
    pub req_id: u64,
    /// Model generation that answered.
    pub epoch: u64,
    /// Echoed agent index.
    pub agent: u32,
    /// Greedy (arg-max) action index.
    pub action: u32,
    /// Echoed trace context ([`TraceCtx::NONE`] for untraced requests).
    pub ctx: TraceCtx,
}

/// Decodes an inference-response payload, copying the logits into
/// `logits` (cleared and refilled in place).
///
/// # Errors
///
/// [`DistError::Protocol`] on truncated or inconsistent payloads.
pub fn decode_response_into(payload: &[u8], logits: &mut Vec<f32>) -> Result<Response, DistError> {
    if payload.len() < 28 + TRACE_CTX_WIRE_LEN {
        return Err(DistError::Protocol(format!("infer response too short: {}", payload.len())));
    }
    let req_id = get_u64(payload, 0);
    let epoch = get_u64(payload, 8);
    let agent = get_u32(payload, 16);
    let action = get_u32(payload, 20);
    let logit_len = get_u32(payload, 24) as usize;
    let body = &payload[28..];
    if body.len() != logit_len * 4 + TRACE_CTX_WIRE_LEN {
        return Err(DistError::Protocol(format!(
            "infer response logits: declared {logit_len} floats, got {} bytes",
            body.len()
        )));
    }
    let ctx = TraceCtx::read_from(body).expect("length checked above");
    logits.clear();
    get_f32s_into(&body[..logit_len * 4], logits);
    Ok(Response { req_id, epoch, agent, action, ctx })
}

/// Builds a complete inference-error frame into `frame`.
pub fn encode_error(req_id: u64, code: u32, frame: &mut Vec<u8>) {
    wire::begin_raw_frame(frame);
    put_u64(frame, req_id);
    put_u32(frame, code);
    wire::finish_raw_frame(KIND_INFER_ERR, frame);
}

/// Decodes an inference-error payload into `(req_id, code)`.
///
/// # Errors
///
/// [`DistError::Protocol`] on truncated payloads.
pub fn decode_error(payload: &[u8]) -> Result<(u64, u32), DistError> {
    if payload.len() != 12 {
        return Err(DistError::Protocol(format!("infer error payload: {} bytes", payload.len())));
    }
    Ok((get_u64(payload, 0), get_u32(payload, 8)))
}

/// Builds a complete control frame into `frame`.
pub fn encode_ctl(op: u32, frame: &mut Vec<u8>) {
    wire::begin_raw_frame(frame);
    put_u32(frame, op);
    wire::finish_raw_frame(KIND_SERVE_CTL, frame);
}

/// Decodes a control payload into its op.
///
/// # Errors
///
/// [`DistError::Protocol`] on truncated payloads.
pub fn decode_ctl(payload: &[u8]) -> Result<u32, DistError> {
    if payload.len() != 4 {
        return Err(DistError::Protocol(format!("ctl payload: {} bytes", payload.len())));
    }
    Ok(get_u32(payload, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_reuses_buffers() {
        let mut frame = Vec::new();
        let mut obs = Vec::new();
        for round in 0..3u32 {
            let sent: Vec<f32> = (0..5).map(|i| (round * 10 + i) as f32 * 0.5 - 1.0).collect();
            let sent_ctx =
                TraceCtx { trace_id: 7, span_id: round as u64 + 1, send_ns: round as u64 * 10 };
            encode_request(round as u64 + 7, round, &sent, sent_ctx, &mut frame);
            let (kind, payload) = wire::decode_raw_frame(&frame).unwrap();
            assert_eq!(kind, KIND_INFER_REQ);
            let (req_id, agent, ctx) = decode_request_into(payload, &mut obs).unwrap();
            assert_eq!(req_id, round as u64 + 7);
            assert_eq!(agent, round);
            assert_eq!(obs, sent);
            assert_eq!(ctx, sent_ctx);
        }
    }

    #[test]
    fn response_roundtrip() {
        let mut frame = Vec::new();
        let mut logits = Vec::new();
        let sent = [0.25f32, -1.5, 3.75];
        let sent_ctx = TraceCtx { trace_id: 11, span_id: 42, send_ns: 1_000 };
        encode_response(99, 4, 2, 1, &sent, sent_ctx, &mut frame);
        let (kind, payload) = wire::decode_raw_frame(&frame).unwrap();
        assert_eq!(kind, KIND_INFER_RESP);
        let r = decode_response_into(payload, &mut logits).unwrap();
        assert_eq!(r, Response { req_id: 99, epoch: 4, agent: 2, action: 1, ctx: sent_ctx });
        assert_eq!(logits, sent);
    }

    #[test]
    fn untraced_requests_carry_the_none_context() {
        let mut frame = Vec::new();
        let mut obs = Vec::new();
        encode_request(1, 0, &[1.0], TraceCtx::NONE, &mut frame);
        let (_, payload) = wire::decode_raw_frame(&frame).unwrap();
        let (_, _, ctx) = decode_request_into(payload, &mut obs).unwrap();
        assert!(!ctx.is_set());
    }

    #[test]
    fn error_and_ctl_roundtrip() {
        let mut frame = Vec::new();
        encode_error(5, ERR_BAD_OBS_DIM, &mut frame);
        let (kind, payload) = wire::decode_raw_frame(&frame).unwrap();
        assert_eq!(kind, KIND_INFER_ERR);
        assert_eq!(decode_error(payload).unwrap(), (5, ERR_BAD_OBS_DIM));

        encode_ctl(CTL_SHUTDOWN, &mut frame);
        let (kind, payload) = wire::decode_raw_frame(&frame).unwrap();
        assert_eq!(kind, KIND_SERVE_CTL);
        assert_eq!(decode_ctl(payload).unwrap(), CTL_SHUTDOWN);
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        let mut obs = Vec::new();
        assert!(decode_request_into(&[0; 8], &mut obs).is_err());
        // Long enough for the fixed fields but missing the ctx trailer.
        assert!(decode_request_into(&[0; 16], &mut obs).is_err());
        // Declared 3 floats, carries 2.
        let mut frame = Vec::new();
        encode_request(1, 0, &[1.0, 2.0, 3.0], TraceCtx::NONE, &mut frame);
        let (_, payload) = wire::decode_raw_frame(&frame).unwrap();
        let cut = &payload[..payload.len() - 4];
        assert!(decode_request_into(cut, &mut obs).is_err());
        assert!(decode_error(&[0; 3]).is_err());
        assert!(decode_ctl(&[0; 5]).is_err());
    }
}
