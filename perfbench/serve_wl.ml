(* serve-mixed: a closed loop of two clients against the in-process
   Metrics.Serve engine.  Each client sends atomic batch lines and waits
   for each reply before its next line.  Every distinct request (suite
   loop x {base, repl} x two configurations) is a miss once, as the
   requests of the repo's [serve] payload are; the seed draws which of
   them are asked twice in their line (held in flight together, as in
   that payload's coalescing burst) and which are re-requested in a
   later line by the same client (store hits).  Each client only
   re-requests keys it has already been answered and the clients' keys
   are disjoint, so hits, computes and coalesced are the same in every
   run.

   The measured rounds run the engine with no worker domain: every miss
   is computed inline, so a doubled key's second request is a store hit,
   and the round is timed on the process CPU clock.  With a worker
   domain the round's time follows whether the host lends the process a
   second CPU at that moment (see README.md).  The traced run adds two
   rounds with one worker domain: the same plan, where the doubled keys
   coalesce, and the plan sent one request per line, where every miss
   waits for two cross-domain wake-ups.

   The two shares and the line length are assumptions: no recorded
   traffic exists to take them from. *)

open Common

let configs = [ "4c1b2l64r"; "2c1b2l64r" ]
let dup_share = 0.10
let rerequest_share = 0.25
let batch = 8

type key = {
  kid : string;
  loop : Workload.Generator.loop;
  mode : Metrics.Experiment.mode;
  config : Machine.Config.t;
}

type kind = Miss | Hit

(* One line: its request slots' keys in order (a doubled key twice). *)
type op = { oid : int; keys : key list; kind : kind; line : string }

let slots op = List.length op.keys

(* Distinct requests: one per (mode, config, DDG structure, trip). *)
let keys loops =
  let seen = Hashtbl.create 4096 in
  List.concat_map
    (fun cname ->
      let config = config cname in
      List.concat_map
        (fun mode ->
          List.filter_map
            (fun (l : Workload.Generator.loop) ->
              let k =
                ( Metrics.Experiment.mode_tag mode,
                  cname,
                  Ddg.Graph.structural_encoding l.Workload.Generator.graph,
                  l.Workload.Generator.trip )
              in
              if Hashtbl.mem seen k then None
              else begin
                Hashtbl.add seen k ();
                Some { kid = Printf.sprintf "k%d" (Hashtbl.length seen); loop = l; mode; config }
              end)
            loops)
        Metrics.Experiment.[ Baseline; Replication ])
    configs

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Workload.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let request k = Metrics.Serve.request ~id:k.kid ~mode:k.mode ~config:k.config k.loop

(* A line of one request is a plain request; of several, a batch. *)
let wire = function [ x ] -> x | xs -> Metrics.Serve.batch_request xs

let line kind keys = { oid = 0; keys; kind; line = wire (List.map request keys) }

let rec chunks k = function
  | [] -> []
  | xs -> take k xs :: chunks k (List.filteri (fun i _ -> i >= k) xs)

(* One client's stream over its own keys: lines of [batch] first
   requests with a fixed share of keys doubled, and a fixed number of
   re-requests of keys from earlier lines, sent in lines of at most
   [batch] after the line they follow. *)
let stream ~batch rng ks =
  let n = List.length ks in
  let arr = Array.of_list ks in
  let n_dup = int_of_float (Float.round (dup_share *. float_of_int n)) in
  let dup = Array.make n false in
  List.iteri (fun i j -> if i < n_dup then dup.(j) <- true) (shuffle rng (List.init n Fun.id));
  let lines = (n + batch - 1) / batch in
  let n_re = int_of_float (Float.round (rerequest_share *. float_of_int n)) in
  (* re-request key [j] after line [pos], a later line than [j]'s *)
  let after = Array.make lines [] in
  let earlier = min n (batch * (lines - 1)) in
  for _ = 1 to (if earlier > 0 then n_re else 0) do
    let j = Workload.Rng.int rng earlier in
    let pos = (j / batch) + 1 + Workload.Rng.int rng (lines - 1 - (j / batch)) in
    after.(pos) <- j :: after.(pos)
  done;
  List.concat
    (List.init lines (fun l ->
         let first =
           List.concat
             (List.init (min batch (n - (l * batch))) (fun i ->
                  let j = (l * batch) + i in
                  if dup.(j) then [ arr.(j); arr.(j) ] else [ arr.(j) ]))
         in
         line Miss first
         :: List.map
              (fun js -> line Hit (List.map (fun j -> arr.(j)) js))
              (chunks batch (List.rev after.(l)))))

let plan ~batch ~seed loops =
  let rng = Workload.Rng.create seed in
  let ks = shuffle rng (keys loops) in
  let a = List.filteri (fun i _ -> i mod 2 = 0) ks
  and b = List.filteri (fun i _ -> i mod 2 = 1) ks in
  let sa = stream ~batch rng a in
  let sb = stream ~batch rng b in
  let sa = List.mapi (fun i op -> { op with oid = i }) sa in
  let sb = List.mapi (fun i op -> { op with oid = List.length sa + i }) sb in
  [| sa; sb |]

type round = {
  seconds : float;  (** on the round's clock: CPU with no worker domain, wall with one *)
  cpu_s : float;
  answered : (op * float * string) list;  (** latency and reply line *)
  shed : op list;  (** lines the engine refused *)
  stats : Metrics.Json.t;
}

let engine ~workers =
  Metrics.Serve.create ~io:(Metrics.Serve.Io.silent ())
    ~limits:{ Metrics.Serve.default_limits with workers; queue_bound = 1024 }
    ~backoff:(Metrics.Backoff.none ())
    ~worker_backoff:(fun _ -> Metrics.Backoff.none ())
    ()

(* Each client has one line in flight and sends its next line when the
   previous reply arrives.  With no worker domain the round never waits,
   so it is timed on the process CPU clock, which leaves out the time the
   host runs other guests on the CPU; with workers it is timed on the
   wall clock.  Request spans are on the wall clock either way. *)
let round ~workers streams =
  Gc.compact ();
  let clock = if workers = 0 then cpu else now in
  let t = engine ~workers in
  Fun.protect ~finally:(fun () -> Metrics.Serve.shutdown t) @@ fun () ->
  let pending = Array.map (fun s -> ref s) streams in
  let inflight = Hashtbl.create 4 in
  let answered = ref [] and shed = ref [] in
  let rec send c =
    match !(pending.(c)) with
    | [] -> ()
    | op :: rest ->
        pending.(c) := rest;
        let sent = (clock (), now ()) in
        (match Span.with_ "serve.admit" (fun () -> Metrics.Serve.admit t op.line) with
        | Ok seq -> Hashtbl.replace inflight seq (c, op, sent)
        | Error _ ->
            shed := op :: !shed;
            send c)
  in
  let cpu0 = cpu () in
  let t0 = clock () in
  Array.iteri (fun c _ -> send c) streams;
  while Metrics.Serve.busy t do
    let finished = Span.with_ "serve.pump" (fun () -> Metrics.Serve.pump_wait t) in
    let stop = clock () and stop_wall = now () in
    List.iter
      (fun (seq, reply) ->
        let c, op, (sent, sent_wall) = Hashtbl.find inflight seq in
        Hashtbl.remove inflight seq;
        let name = match op.kind with Hit -> "serve.request.hit" | Miss -> "serve.request.miss" in
        Span.add ~n:(float_of_int (String.length reply)) name ~start:sent_wall ~stop:stop_wall;
        answered := (op, stop -. sent, reply) :: !answered;
        send c)
      finished
  done;
  let seconds = clock () -. t0 in
  let cpu_s = cpu () -. cpu0 in
  let stats = Metrics.Json.parse (Metrics.Serve.handle t (Metrics.Serve.stats_request ())) in
  { seconds; cpu_s; answered = !answered; shed = !shed; stats }

let stat r name = Metrics.Json.to_int (Metrics.Json.member name r.stats)

(* The inline reference replies, one per distinct key, computed on the
   pool outside the measured rounds. *)
let references streams =
  let ks = Hashtbl.create 4096 in
  Array.iter
    (List.iter (fun op ->
         if op.kind = Miss then List.iter (fun k -> Hashtbl.replace ks k.kid k) op.keys))
    streams;
  let keys = Hashtbl.fold (fun _ k acc -> k :: acc) ks [] in
  let replies =
    Metrics.Pool.map ~jobs:2
      (fun k -> (k.kid, Metrics.Serve.direct_reply ~id:k.kid ~mode:k.mode ~config:k.config k.loop))
      keys
  in
  let tbl = Hashtbl.create 4096 in
  List.iter (fun (kid, r) -> Hashtbl.replace tbl kid r) replies;
  (keys, tbl)

(* A reply line's statuses, one per request slot. *)
let statuses reply =
  let status j = Metrics.Json.to_str (Metrics.Json.member "status" j) in
  match Metrics.Json.parse reply with
  | Metrics.Json.List js -> List.map status js
  | j -> [ status j ]

let shed_slots r = List.fold_left (fun a op -> a + slots op) 0 r.shed

(* A round's failed request slots: answered other than [ok], or shed. *)
let failed_slots r =
  List.fold_left
    (fun a (_, _, got) -> a + List.length (List.filter (( <> ) "ok") (statuses got)))
    (shed_slots r) r.answered

(* A round's failed request slots and the problems its checks found.
   The planned counter values only hold when no line was shed.  With a
   worker domain a doubled key's second request coalesces onto the
   first; with none, the first is computed before the second is looked
   at, so the second is a store hit. *)
let check_round ~n_keys ~n_slots ~n_dup ~n_hit refs (workers, r) =
  let n_hit, n_dup = if workers = 0 then (n_hit + n_dup, 0) else (n_hit, n_dup) in
  let reply_problems =
    List.concat_map
      (fun (op, _, got) ->
        let expected = wire (List.map (fun k -> Hashtbl.find refs k.kid) op.keys) in
        Checks.reply ~id:(List.hd op.keys).kid ~expected got)
      r.answered
  in
  let n_shed = shed_slots r in
  let hits = stat r "hits" and computes = stat r "computes" and coalesced = stat r "coalesced" in
  let exact =
    if r.shed <> [] || (hits = n_hit && computes = n_keys && coalesced = n_dup) then []
    else
      [
        Printf.sprintf "serve: expected %d hits, %d computes, %d coalesced; got %d, %d, %d"
          n_hit n_keys n_dup hits computes coalesced;
      ]
  in
  ( failed_slots r,
    reply_problems
    @ Checks.serve_counts ~requests:(n_slots - n_shed) ~hits ~computes ~coalesced
    @ exact )

(* code_mcycles and proven_loops over the distinct replies: each ok
   reply's formula cycles must equal the simulator's count it carries. *)
let code keys refs =
  List.fold_left
    (fun (mc, proven, problems) k ->
      let j = Metrics.Json.parse (Hashtbl.find refs k.kid) in
      let int name = Metrics.Json.to_int (Metrics.Json.member name j) in
      if Metrics.Json.to_str (Metrics.Json.member "status" j) <> "ok" then (mc, proven, problems)
      else begin
        let ii = int "ii" in
        let cycles = List.map Metrics.Json.to_int (Metrics.Json.to_list (Metrics.Json.member "cycles" j)) in
        let length = List.fold_left max (-1) cycles + 1 in
        let trip = k.loop.Workload.Generator.trip in
        let f = Checks.formula_cycles ~trip ~length ~ii in
        let sim = Metrics.Json.to_int (Metrics.Json.member "cycles" (Metrics.Json.member "counts" j)) in
        let problems =
          if f = sim then problems
          else Printf.sprintf "%s: formula cycles %d, simulator cycles %d" k.kid f sim :: problems
        in
        ( mc +. (float_of_int (k.loop.Workload.Generator.visits * f) /. 1e6),
          (proven + if ii = int "mii" then 1 else 0),
          problems )
      end)
    (0., 0, []) keys

let run ~small ~seed ~seconds ~trace =
  let (loops, streams), setup_s =
    set_up (fun () ->
        let loops = suite ~small () in
        (loops, plan ~batch ~seed loops))
  in
  let ops = Array.to_list streams |> List.concat in
  let count kind = List.fold_left (fun a op -> if op.kind = kind then a + slots op else a) 0 ops in
  let n_hit = count Hit and n_miss_slots = count Miss in
  let n_slots = n_miss_slots + n_hit in
  (* The traced run adds two untraced rounds with one worker domain:
     the same plan, and the plan sent one request per line. *)
  let inline () = round ~workers:0 streams in
  let measured, worker, single, peak, phase_times =
    if not trace then
      let rs, peak = rounds ~seconds inline in
      (rs, [], [], peak, [])
    else begin
      let warm_up = untraced inline in
      let plain = untraced inline in
      Sched.Profile.set_enabled true;
      let traced = inline () in
      let times = phase_seconds () in
      Sched.Profile.set_enabled false;
      let worker = untraced (fun () -> round ~workers:1 streams) in
      let single = untraced (fun () -> round ~workers:1 (plan ~batch:1 ~seed loops)) in
      ([ warm_up; plain; traced ], [ worker ], [ single ], 0., times)
    end
  in
  let keys, refs = references streams in
  let n_keys = List.length keys in
  let n_dup = n_miss_slots - n_keys in
  let checked =
    List.map (check_round ~n_keys ~n_slots ~n_dup ~n_hit refs)
      (List.map (fun r -> (0, r)) measured @ List.map (fun r -> (1, r)) (worker @ single))
  in
  let failed = List.fold_left (fun a (f, _) -> a + f) 0 checked in
  let problems = List.concat_map snd checked in
  let mcycles, proven, code_problems = code keys refs in
  let attempted = n_slots * List.length (measured @ worker @ single) in
  let timed = timed_rounds measured in
  let lat =
    op_medians
      (List.concat_map (fun r -> List.map (fun (op, l, _) -> (op.oid, slots op, l)) r.answered) timed)
  in
  let metrics =
    if not trace then
      let pass_s = pass_seconds (List.map (fun r -> r.seconds) timed) in
      [
        ("setup_s", setup_s);
        ("pass_s", pass_s);
        ("peak_rss_mb", peak);
        ("code_mcycles", mcycles);
        ("rps", ratio (float_of_int n_slots) pass_s);
        ("p50_ms", 1000. *. percentile lat 0.5);
        ("p99_ms", 1000. *. percentile lat 0.99);
        ("proven_loops", float_of_int proven);
      ]
    else begin
      let plain = List.nth measured 1 and r = List.nth measured 2 in
      let w = List.hd worker and one = List.hd single in
      let one_lat =
        List.concat_map (fun (op, l, _) -> List.init (slots op) (fun _ -> l)) one.answered
      in
      let kind_ms k =
        1000. *. percentile (List.filter_map (fun (op, l, _) -> if op.kind = k then Some l else None) r.answered) 0.5
      in
      let computes = float_of_int (stat r "computes") in
      let w_computes = float_of_int (stat w "computes") and coalesced = float_of_int (stat w "coalesced") in
      let store = Metrics.Json.member "store" r.stats in
      let sh = float_of_int (Metrics.Json.to_int (Metrics.Json.member "hits" store))
      and sm = float_of_int (Metrics.Json.to_int (Metrics.Json.member "misses" store)) in
      (("workload.generate_s", median (Span.durations "workload.generate")) :: phase_times)
      @ fingerprint_and_json loops (List.map (fun op -> op.line) ops)
      @ [
          ("serve.admit_s", Span.total "serve.admit");
          ("serve.pump_s", Span.total "serve.pump");
          ("serve.hit_p50_ms", kind_ms Hit);
          ("serve.miss_p50_ms", kind_ms Miss);
          ("serve.computes", computes);
          ("serve.coalesced", coalesced);
          ("serve.worker_rps", ratio (float_of_int n_slots) w.seconds);
          ("serve.single_rps", ratio (float_of_int n_slots) one.seconds);
          ("serve.single_p50_ms", 1000. *. percentile one_lat 0.5);
          ("serve.single_p99_ms", 1000. *. percentile one_lat 0.99);
          ("serve.coalesce_rate", ratio coalesced (w_computes +. coalesced));
          ("serve.reply_mb", (Span.sum_n "serve.request.hit" +. Span.sum_n "serve.request.miss") /. 1e6);
          ("store.lookups", sh +. sm);
          ("store.hit_rate", ratio sh (sh +. sm));
          ("pool.cpu_s", w.cpu_s);
          ("pool.cpu_per_wall", ratio w.cpu_s w.seconds);
          ("trace.overhead_s", r.seconds -. plain.seconds);
        ]
    end
  in
  { attempted; failed; problems = problems @ code_problems; metrics }
