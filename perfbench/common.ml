(* Shared plumbing: timing, order statistics, process figures, set-up
   and the per-layer re-invocations several workloads share. *)

let now = Unix.gettimeofday

(* CPU seconds (user + system) of this process, over every domain.
   Work on one domain that never waits is timed on this clock: it
   leaves out the time the host runs other guests on the CPU, and on a
   dedicated core it equals the wall time. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let timed ?(clock = now) f =
  let t0 = clock () in
  let r = f () in
  (r, clock () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [p] in [0, 1]; 0 on an empty sample. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Latency samples [(operation, weight, seconds)] from every round: each
   operation's latency is its median over the rounds, counted [weight]
   times (a batch of two requests is two requests). *)
let op_medians samples =
  let tbl = Hashtbl.create 4096 in
  List.iter
    (fun (k, w, x) ->
      let xs = match Hashtbl.find_opt tbl k with Some (_, xs) -> xs | None -> [] in
      Hashtbl.replace tbl k (w, x :: xs))
    samples;
  Hashtbl.fold (fun _ (w, xs) acc -> List.init w (fun _ -> median xs) @ acc) tbl []

(* A run's pass time from its rounds' times, which go to stderr. *)
let pass_seconds xs =
  prerr_endline
    ("perfbench: round seconds " ^ String.concat " " (List.map (Printf.sprintf "%.4f") xs));
  median xs

let ratio a b = if b > 0. then a /. b else 0.

(* High-water resident set of this process, from /proc/self/status. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let config name =
  match Machine.Config.of_name name with
  | Some c -> c
  | None -> failwith ("perfbench: unknown machine configuration " ^ name)

(* Schedules whose code cycles the figures and serve workloads sum. *)
let code_config = "4c1b2l64r"

let rec take k = function
  | x :: xs when k > 0 -> x :: take (k - 1) xs
  | _ -> []

(* The small-input mode: the first two loops of every benchmark. *)
let small_loops () =
  List.concat_map
    (fun b -> take 2 (Workload.Generator.generate b))
    Workload.Benchmark.all

(* Repeat [round] until [seconds] have passed, at least once; every
   round is whole, so a run's operation counts are a multiple of one
   round's.  Also returns the resident high-water mark after the first
   round: later rounds only add heap the runtime kept from earlier ones,
   so that is the peak one round needs. *)
let rounds ~seconds round =
  let t0 = now () in
  let first = round () in
  let peak = peak_rss_mb () in
  let rec go acc =
    if now () -. t0 >= seconds then List.rev acc else go (round () :: acc)
  in
  (go [ first ], peak)

(* The rounds whose times count: all but the first, a warm-up that is
   still checked and counted.  A run of one round keeps it. *)
let timed_rounds = function [ r ] -> [ r ] | _ :: rest -> rest | [] -> []

(* Run [f] with span recording off: the untraced side of a traced run. *)
let untraced f =
  let was = !Span.on in
  Span.on := false;
  Fun.protect ~finally:(fun () -> Span.on := was) f

(* The outcome of one workload run: operation counts, the metrics
   measured (name, value), and the problems the output checks found. *)
type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  problems : string list;
}

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

(* Set up [setups] times and keep the first result; setup_s is the
   median time.  Set-up runs on one domain, so on the CPU clock. *)
let setups = 9

let set_up f =
  let runs = List.init setups (fun _ -> timed ~clock:cpu f) in
  (fst (List.hd runs), median (List.map snd runs))

(* The workload's suite. *)
let suite ~small () =
  Span.with_ "workload.generate" (fun () ->
      if small then small_loops () else Workload.Generator.suite ())

let phase_seconds () =
  List.map
    (fun p -> ("sched." ^ Sched.Profile.name p ^ "_s", Sched.Profile.seconds p))
    Sched.Profile.phases

let phase_mwords () =
  List.map
    (fun p ->
      ( "sched." ^ Sched.Profile.name p ^ "_mwords",
        float_of_int (fst (Sched.Profile.alloc_words p)) /. 1e6 ))
    Sched.Profile.phases

(* Per-layer figures that re-invoke a layer on the workload's inputs:
   the DDG fingerprint over every loop, and the JSON parser over
   [documents] (store files, or the suite's graphs on the wire). *)
let fingerprint_and_json loops documents =
  List.iter
    (fun (l : Workload.Generator.loop) ->
      ignore
        (Span.with_ "ddg.fingerprint" (fun () ->
             Ddg.Fingerprint.canonical l.Workload.Generator.graph)))
    loops;
  List.iter
    (fun doc ->
      ignore
        (Span.with_ ~n:(float_of_int (String.length doc)) "json.parse"
           (fun () -> Metrics.Json.parse doc)))
    documents;
  [
    ("ddg.fingerprint_s", Span.total "ddg.fingerprint");
    ("json.parse_mb_per_s", ratio (Span.sum_n "json.parse" /. 1e6) (Span.total "json.parse"));
  ]

let wire_graphs loops =
  List.map
    (fun (l : Workload.Generator.loop) ->
      Metrics.Json.print (Metrics.Store.Graph_json.encode l.Workload.Generator.graph))
    loops
