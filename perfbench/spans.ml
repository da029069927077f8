(* The benchmark's own trace: a span around each call it makes into a
   layer, kept in memory and written out as JSON lines when the run ends.
   Off (every function is a no-op) unless the run is traced. *)

type t = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  start_ns : int64;
  mutable end_ns : int64;
}

let enabled = ref false
let recorded : t list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let none = { id = 0; parent = 0; name = ""; start_ns = 0L; end_ns = 0L }

let start ?parent name =
  if not !enabled then none
  else begin
    incr next_id;
    let parent =
      match parent, !stack with
      | Some p, _ -> p.id
      | None, p :: _ -> p
      | None, [] -> 0
    in
    let sp = { id = !next_id; parent; name; start_ns = Clock.now_ns (); end_ns = 0L } in
    recorded := sp :: !recorded;
    sp
  end

let finish sp = if sp.id <> 0 then sp.end_ns <- Clock.now_ns ()

(* [f ()] inside a span that is the parent of spans started during it. *)
let around name f =
  if not !enabled then f ()
  else begin
    let sp = start name in
    stack := sp.id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        finish sp;
        stack := List.tl !stack)
      f
  end

(* [f ()] with recording off: the untraced baselines of a traced run. *)
let without f =
  let was = !enabled in
  enabled := false;
  Fun.protect ~finally:(fun () -> enabled := was) f

let write path =
  let oc = open_out path in
  List.iter
    (fun sp ->
      Printf.fprintf oc "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
        sp.id sp.parent sp.name sp.start_ns sp.end_ns)
    (List.rev !recorded);
  close_out oc
