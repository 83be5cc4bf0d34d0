// Commit-path spans: a per-commit-instance phase timeline, exported as
// asa-span/1.
//
// The trace layer records point events (message fates); spans record
// *intervals* with parentage, so a whole commit decomposes into the phase
// tree the protocol actually executes (obs::Word lists the span names).
// Spans are recorded as events in EventRecorder's span view: an open, a
// close and a point each name their span and carry the protocol's causal
// ids (the GUID, the client request id and the per-attempt update id).
// The runtime never holds a span id; this writer derives them:
//
//   - ids are assigned from 1 in open order, so identical runs export
//     byte-identical documents, and a merged recorder's runs continue the
//     numbering;
//   - a close names (node, GUID, key, span name), where the key is the
//     request id of an endpoint span (commit, attempt) and the update id
//     of a peer span (vote-collect, quorum, journal-append, ack-sent). It
//     closes the open span it names; closing an unknown or already-closed
//     span is a no-op;
//   - an attempt's parent is the open commit root of its (node, GUID,
//     request id); a journal-append's or ack-sent's is the quorum span of
//     its (node, GUID, update id), set when that quorum opens and cleared
//     when it closes failed (aborted); every other span is a root;
//   - a nameless close ends its node's spans (the node's peer was
//     rebuilt), or on the cluster lane every node's (a run boundary):
//     they stay open, and nothing after joins them. With no entry a
//     parent is 0.
//
// asareport joins endpoint spans to the peer spans of the decisive
// replica on the same causal ids to compute a per-commit critical path
// (--critical-path).
#pragma once

#include <cstddef>
#include <string>

#include "obs/event.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"  // Meta.

namespace asa_repro::obs {

/// The spans (opens and points) in the recorder's span view.
[[nodiscard]] std::size_t span_count(const EventRecorder& recorder);

/// Render the recorder's span view as one asa-span/1 JSON document:
///   {"schema":"asa-span/1","meta":{...},
///    "spans":[{"id","parent","name","node","guid","request","update",
///              "start","end","ok","closed","detail"}...]}
/// Spans appear in id order; byte-identical across identical runs. "guid"
/// is the GUID's unsigned decimal string; a span still open exports its
/// start as its end, not ok, not closed. The writer form streams the
/// document as the next value of `out`; the string form is the indent-1
/// file, newline-terminated, reserved up front from the span events.
void write_spans_json(JsonWriter& out, const EventRecorder& recorder,
                      const Meta& meta);
[[nodiscard]] std::string write_spans_json(const EventRecorder& recorder,
                                           const Meta& meta);

}  // namespace asa_repro::obs
