(* The structured event log: a bounded ring of {time; component; kind;
   attrs} records stamped with *simulation* time, with severity filtering
   at record time and a JSONL dump. When the ring is full the oldest event
   is dropped and counted — the dump always says how much history it is
   missing.

   Span events are the bulk of a full trace (two or three per span, one
   span per packet), so the ring stores them as the fields copied out of
   the span — ints, floats, strings the span already holds, and an attrs
   thunk — in parallel arrays, and renders them to {!event}s only when
   the trace is read. Recording one allocates nothing once the arrays
   have grown, and keeps nothing alive that the rendered strings would
   have cost. *)
type severity = Debug | Info | Warn | Error

let severity_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let severity_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let severity_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

type event = {
  time : float;
  severity : severity;
  component : string;
  kind : string;
  attrs : (string * string) list;
}

type kind = Explicit | Span_begin | Span_end | Span_abandoned

let no_attrs () = []

let dummy_event =
  { time = 0.0; severity = Debug; component = ""; kind = ""; attrs = [] }

(* Entry [i] of the ring lives at index [i] of every array. An [Explicit]
   entry keeps the caller's record in [explicit]. A span entry keeps the
   span's fields in the others and its attrs as a thunk in [thunks];
   [times] is the event's time and [starts] the span's start, so a
   [span.end]'s duration is their difference. *)
type slots = {
  kinds : kind array;
  ids : int array;
  parents : int option array;
  times : float array;
  starts : float array;
  names : string array;
  components : string array;
  outcomes : string array;
  thunks : (unit -> (string * string) list) array;
  explicit : event array;
}

let no_slots =
  { kinds = [||]; ids = [||]; parents = [||]; times = [||]; starts = [||];
    names = [||]; components = [||]; outcomes = [||]; thunks = [||]; explicit = [||] }

type t = {
  capacity : int;
  mutable slots : slots;
  mutable first : int;      (* slot of the oldest entry *)
  mutable length : int;
  mutable level : severity;
  mutable dropped : int;    (* overwritten by ring overflow *)
  mutable filtered : int;   (* suppressed below the severity floor *)
}

let create ?(capacity = 8192) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { capacity; slots = no_slots; first = 0; length = 0; level = Debug; dropped = 0;
    filtered = 0 }

let set_level t level = t.level <- level
let level t = t.level

(* The arrays start at 16 slots (or [capacity], if smaller) and double up
   to [capacity]: most collectors (one per load client, replica, bench
   bed) record little or nothing, and should not pay for a full ring.
   The ring only wraps once it has reached [capacity], so storage that
   grows holds its entries in slots [0, length). *)
let grow t =
  let s = t.slots in
  let size = Array.length s.kinds in
  let size' = if size = 0 then min 16 t.capacity else min (2 * size) t.capacity in
  let resize a fill =
    let b = Array.make size' fill in
    Array.blit a 0 b 0 size;
    b
  in
  t.slots <-
    { kinds = resize s.kinds Explicit; ids = resize s.ids 0;
      parents = resize s.parents None; times = resize s.times 0.0;
      starts = resize s.starts 0.0; names = resize s.names "";
      components = resize s.components ""; outcomes = resize s.outcomes "";
      thunks = resize s.thunks no_attrs; explicit = resize s.explicit dummy_event }

(* The slot for a new entry. Until the ring is full, entries fill slots
   [0, length) in order; from then on each overwrites the oldest. *)
let next_slot t =
  if t.length = Array.length t.slots.kinds && t.length < t.capacity then grow t;
  if t.length < Array.length t.slots.kinds then begin
    t.length <- t.length + 1;
    t.length - 1
  end
  else begin
    let slot = t.first in
    t.first <- (if slot + 1 = t.capacity then 0 else slot + 1);
    t.dropped <- t.dropped + 1;
    slot
  end

let admits t severity =
  if severity_rank severity < severity_rank t.level then begin
    t.filtered <- t.filtered + 1;
    false
  end
  else true

(* An explicit record and an attrs thunk are the references that can
   hold the most, so each writer clears the other kind's: an overwritten
   entry keeps neither alive. *)
let record t ev =
  if admits t ev.severity then begin
    let slot = next_slot t and s = t.slots in
    s.kinds.(slot) <- Explicit;
    s.explicit.(slot) <- ev;
    s.thunks.(slot) <- no_attrs
  end

let record_span t kind severity ~time ~attrs (span : Span.t) =
  if admits t severity then begin
    let slot = next_slot t and s = t.slots in
    if s.kinds.(slot) = Explicit then s.explicit.(slot) <- dummy_event;
    s.kinds.(slot) <- kind;
    s.ids.(slot) <- span.Span.id;
    s.parents.(slot) <- span.Span.parent;
    s.times.(slot) <- time;
    s.starts.(slot) <- span.Span.start_time;
    s.names.(slot) <- span.Span.name;
    s.components.(slot) <- span.Span.component;
    s.outcomes.(slot) <- span.Span.outcome;
    s.thunks.(slot) <- attrs
  end

let span_begin t ~attrs span =
  record_span t Span_begin Debug ~time:span.Span.start_time ~attrs span

let span_end t ~time span = record_span t Span_end Debug ~time ~attrs:no_attrs span

let span_abandoned t ~time span =
  record_span t Span_abandoned Warn ~time ~attrs:no_attrs span

(* A span entry as the event a reader sees. The attrs' order and the
   three-decimal duration are the dump format, which the tests pin by
   digest. *)
let render s slot =
  let span_event kind severity attrs =
    { time = s.times.(slot); severity; component = s.components.(slot); kind;
      attrs = ("span", string_of_int s.ids.(slot)) :: ("name", s.names.(slot)) :: attrs }
  in
  match s.kinds.(slot) with
  | Explicit -> s.explicit.(slot)
  | Span_begin ->
      span_event "span.begin" Debug
        ((match s.parents.(slot) with
         | Some p -> [ ("parent", string_of_int p) ]
         | None -> [])
        @ s.thunks.(slot) ())
  | Span_end ->
      let duration = s.times.(slot) -. s.starts.(slot) in
      span_event "span.end" Debug
        [ ("outcome", s.outcomes.(slot));
          ("duration_ms", Printf.sprintf "%.3f" (duration *. 1000.0)) ]
  | Span_abandoned -> span_event "span.abandoned" Warn []

(* The [i]th entry, oldest first. *)
let nth t i =
  let size = Array.length t.slots.kinds in
  let slot = t.first + i in
  render t.slots (if slot >= size then slot - size else slot)

let events t = List.init t.length (nth t)

let length t = t.length
let dropped t = t.dropped
let filtered t = t.filtered

let clear t =
  t.slots <- no_slots;
  t.first <- 0;
  t.length <- 0;
  t.dropped <- 0;
  t.filtered <- 0

let event_to_json ev =
  Json.Obj
    [ ("time", Json.Float ev.time);
      ("severity", Json.Str (severity_to_string ev.severity));
      ("component", Json.Str ev.component);
      ("kind", Json.Str ev.kind);
      ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) ev.attrs)) ]

let event_of_json j =
  match
    ( Option.bind (Json.member "time" j) Json.to_float,
      Option.bind (Json.member "severity" j) Json.to_str,
      Option.bind (Json.member "component" j) Json.to_str,
      Option.bind (Json.member "kind" j) Json.to_str,
      Json.member "attrs" j )
  with
  | Some time, Some sev, Some component, Some kind, Some (Json.Obj fields) -> (
      match severity_of_string sev with
      | None -> Result.Error ("unknown severity " ^ sev)
      | Some severity ->
          if List.exists (fun (_, v) -> Json.to_str v = None) fields then
            Result.Error "non-string attr value"
          else
            let attrs =
              List.map (fun (k, v) -> (k, Option.get (Json.to_str v))) fields
            in
            Ok { time; severity; component; kind; attrs })
  | _ -> Result.Error "event missing a required field"

let to_jsonl t =
  let b = Buffer.create 1024 in
  if t.dropped > 0 then begin
    Buffer.add_string b
      (Json.to_string
         (Json.Obj
            [ ("time", Json.Float 0.0); ("severity", Json.Str "warn");
              ("component", Json.Str "telemetry");
              ("kind", Json.Str "trace.truncated");
              ("attrs",
               Json.Obj [ ("dropped_events", Json.Str (string_of_int t.dropped)) ]) ]));
    Buffer.add_char b '\n'
  end;
  for i = 0 to t.length - 1 do
    Buffer.add_string b (Json.to_string (event_to_json (nth t i)));
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

let of_jsonl s =
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match Json.of_string line with
        | Result.Error e -> Result.Error e
        | Ok j -> (
            match event_of_json j with
            | Result.Error e -> Result.Error e
            | Ok ev -> go (ev :: acc) rest))
  in
  go [] lines
