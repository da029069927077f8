(* Monotonic wall clock (CLOCK_MONOTONIC through Bechamel), and the host
   pacing every reported time goes through.

   On a shared host the speed of CPU-bound code drifts by up to half over
   minutes while the code stays the same, so a run that sits in a slow
   stretch would read as a regression. While a run measures, a sampler
   times a fixed pure-OCaml kernel every [sample_period_s] from a timer
   signal. An interval's paced time is its wall time, less the sampler's
   own time inside it, scaled by [nominal_ns] over the median kernel
   time of the samples taken during it: the interval's time on a host
   where the kernel takes [nominal_ns]. The kernel allocates nothing and
   reads no repository code or data, so a change to the program moves an
   interval's paced time as it moves its wall time. *)

let now_ns () = Monotonic_clock.now ()
let ns_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0)

(* --- the kernel --- *)

(* Insertion sort of [kernel_ints] pseudo-random ints in a buffer
   allocated once. The fill, untimed, brings the buffer into cache, so
   the timed sort costs the same whatever the program left there. *)
let kernel_ints = 256
let buf = Array.make kernel_ints 0

let fill () =
  let x = ref 0x2545F491 in
  for i = 0 to kernel_ints - 1 do
    x := !x lxor (!x lsl 13) land 0xFFFFFFFF;
    x := !x lxor (!x lsr 17);
    x := !x lxor (!x lsl 5) land 0xFFFFFFFF;
    buf.(i) <- !x
  done

let sort () =
  for i = 1 to kernel_ints - 1 do
    let v = buf.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && buf.(!j) > v do
      buf.(!j + 1) <- buf.(!j);
      decr j
    done;
    buf.(!j + 1) <- v
  done;
  buf.(0) + buf.(kernel_ints - 1)

(* The start time lives in a float array, so the timed region allocates
   nothing and never runs the GC. *)
let kernel_t0 = [| 0.0 |]

let kernel_ns () =
  fill ();
  kernel_t0.(0) <- Int64.to_float (now_ns ());
  ignore (Sys.opaque_identity (sort ()));
  Int64.to_float (now_ns ()) -. kernel_t0.(0)

(* About the kernel's time on an unloaded 2 GHz Xeon. *)
let nominal_ns = 30_000.0

(* --- the sampler --- *)

let sample_period_s = 0.01

(* Room for 20 minutes of samples; later ones are not taken. Each
   sample is the monotonic ns when it was taken and the kernel's time. *)
let capacity = 120_000
let sample_at = Array.make capacity 0.0
let sample_ns = Array.make capacity 0.0
let samples = ref 0

let take_sample () =
  if !samples < capacity then begin
    let c = kernel_ns () in
    sample_at.(!samples) <- Int64.to_float (now_ns ());
    sample_ns.(!samples) <- c;
    incr samples
  end

(* Samples an interval needs for its own median; a shorter interval is
   paced by this many samples nearest its middle. *)
let window = 9

(* Start the sampler, with a first [window] samples taken at once. *)
let start_sampling () =
  for _ = 1 to window do take_sample () done;
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> take_sample ()));
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = sample_period_s; it_value = sample_period_s })

let stop_sampling () =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = 0.0 });
  Sys.set_signal Sys.sigalrm Sys.Signal_default;
  for _ = 1 to window do take_sample () done

(* Index of the first sample taken after [t]. *)
let first_after t =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if sample_at.(mid) > t then go lo mid else go (mid + 1) hi
  in
  go 0 !samples

let median_of_range lo hi =
  let a = Array.sub sample_ns lo (hi - lo) in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Host speed over [t0, t1]: the median kernel ns of the samples inside
   it, or of the [window] samples nearest its middle. *)
let kernel_median t0 t1 =
  let n = !samples in
  if n = 0 then invalid_arg "Clock: no samples; start the sampler first";
  let lo = first_after t0 and hi = first_after t1 in
  if hi - lo >= window then median_of_range lo hi
  else
    let mid = first_after ((t0 +. t1) /. 2.0) in
    let lo = max 0 (min (mid - (window / 2)) (n - window)) in
    median_of_range lo (min n (lo + window))

let sampler_ns t0 t1 =
  let s = ref 0.0 in
  for i = first_after t0 to first_after t1 - 1 do s := !s +. sample_ns.(i) done;
  !s

(* --- intervals --- *)

type interval = { t0 : float; t1 : float }  (** monotonic ns *)

let interval_since t0 = { t0 = Int64.to_float t0; t1 = Int64.to_float (now_ns ()) }
let raw_s iv = (iv.t1 -. iv.t0) *. 1e-9

(* The interval's time on a host where the kernel takes [nominal_ns],
   without the sampler's own work inside it. *)
let paced_s iv =
  (iv.t1 -. iv.t0 -. sampler_ns iv.t0 iv.t1) *. 1e-9 *. nominal_ns /. kernel_median iv.t0 iv.t1

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, interval_since t0)

(* [runtime.host_ref_ns]: the median kernel time over every sample of the
   run so far. *)
let host_ref_ns () = median_of_range 0 !samples
