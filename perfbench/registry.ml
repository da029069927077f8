(* Reading a run's telemetry registry from outside, through its JSON
   export. A pool of KDCs registers one counter name per member
   ([kdc.LOAD.as_requests_served], [kdc.LOAD.as_requests_served#2], ...),
   so counters are read by base name with their [#n] duplicates summed. *)

let base_name name =
  match String.index_opt name '#' with Some i -> String.sub name 0 i | None -> name

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Every counter of [tel], keyed by base name, duplicates summed. *)
let counters tel =
  let fields =
    match Telemetry.Metrics.to_json (Telemetry.Collector.metrics tel) with
    | Telemetry.Json.Obj fields -> fields
    | _ -> []
  in
  List.fold_left
    (fun acc (name, v) ->
      match Telemetry.Json.member "type" v, Telemetry.Json.member "value" v with
      | Some (Telemetry.Json.Str "counter"), Some (Telemetry.Json.Int n) -> (
          let b = base_name name in
          match List.assoc_opt b acc with
          | Some m -> (b, m + n) :: List.remove_assoc b acc
          | None -> (b, n) :: acc)
      | _ -> acc)
    [] fields
