(** Structured trace/event log: a bounded ring of events stamped with
    {e simulation} time, severity-filtered at record time, dumped as JSONL
    (one JSON object per line; a leading [trace.truncated] record reports
    ring overflow).

    Span events are stored as the span's fields and rendered to {!event}s
    only when the trace is read ({!events}, {!to_jsonl}); the ring grows
    on demand up to its capacity. *)

type severity = Debug | Info | Warn | Error

val severity_to_string : severity -> string
val severity_of_string : string -> severity option

type event = {
  time : float;
  severity : severity;
  component : string;  (** which subsystem: "net", "kdc", "apserver", … *)
  kind : string;       (** what happened: "span.begin", "replay.hit", … *)
  attrs : (string * string) list;
}

type t

val create : ?capacity:int -> unit -> t
(** Ring capacity defaults to 8192 events. Storage starts at 16 entries
    and doubles as needed up to the capacity.
    @raise Invalid_argument on non-positive capacity. *)

val set_level : t -> severity -> unit
(** Events below this severity are counted but not stored. Default:
    [Debug] (store everything). *)

val level : t -> severity
val record : t -> event -> unit

(** {2 Span events}

    Recorded from {!Collector}'s span lifecycle. Each copies the span's
    id, parent, start time, name, component and outcome at the call; the
    attribute strings are built when the trace is read, so [attrs] must
    give the same list whenever it is forced. *)

val span_begin : t -> attrs:(unit -> (string * string) list) -> Span.t -> unit
(** A [Debug] ["span.begin"] at the span's start time, with attrs [span],
    [name], [parent] (when nested), then [attrs ()]. *)

val span_end : t -> time:float -> Span.t -> unit
(** A [Debug] ["span.end"] with attrs [span], [name], [outcome] and
    [duration_ms] (three decimals). *)

val span_abandoned : t -> time:float -> Span.t -> unit
(** A [Warn] ["span.abandoned"] with attrs [span] and [name]. *)

val events : t -> event list
(** Chronological (oldest first). *)

val length : t -> int
val dropped : t -> int

val filtered : t -> int
(** Events suppressed below the severity floor. *)

val clear : t -> unit

val event_to_json : event -> Json.t
val event_of_json : Json.t -> (event, string) result
val to_jsonl : t -> string
val of_jsonl : string -> (event list, string) result
(** Parse a dump back; the [trace.truncated] marker line, if present, is
    returned as an ordinary event. *)
