(* oracle-gap: the exact SAT oracle (Sched.Exact) against the heuristic
   on one domain, over the suite's loops of at most [max_nodes] nodes
   and a seeded draw of small generated loops.  A fixed conflict cap per
   solve call, not a wall-clock budget, bounds each walk, so the proven
   count does not depend on host speed. *)

open Common

let config_name = "4c1b2l64r"
let max_nodes = 18
(* Few, because how hard a generated loop is depends on the seed: the
   exact search over 60 of them took 1.5 to 3.5 s depending on the
   seed, beside about 4.7 s for the suite's loops, whose work is the
   same for every seed. *)
let random_loops = 20
let random_nodes = (5, 9)
let max_conflicts = 2_000
let max_cegar = 40

(* The suite's small loops, then the seeded draw of generated ones. *)
let loops ~small ~seed suite =
  let rng = Workload.Rng.create seed in
  let lo, hi = random_nodes in
  let fixed =
    List.filter (fun l -> Ddg.Graph.n_nodes l.Workload.Generator.graph <= max_nodes) suite
  in
  let n = if small then 4 else random_loops in
  ( fixed,
    (* sizes cycle evenly through the range, so only the bodies are
       drawn from the seed *)
    List.init n (fun i ->
        let seed = Workload.Rng.int rng 1_000_000_000 in
        Workload.Generator.random ~seed ~nodes:(lo + (i mod (hi - lo + 1))) ()) )

(* The better of the baseline and replication schedules. *)
let heuristic config g =
  let base = Sched.Driver.schedule_loop config g in
  let tf, _ = Replication.Replicate.transform () in
  let repl = Sched.Driver.schedule_loop ~transform:tf config g in
  match (base, repl) with
  | Ok a, Ok b -> Some (if b.Sched.Driver.ii <= a.Sched.Driver.ii then b else a)
  | Ok a, Error _ -> Some a
  | Error _, Ok b -> Some b
  | Error _, Error _ -> None

type row = {
  loop : Workload.Generator.loop;
  heuristic_ii : int;
  exact_ii : int;
  proven : bool;
  witness : Sched.Schedule.t;
  stats : Sched.Exact.stats option;
  seconds : float;
}

(* One operation: heuristic, then the exact walk up to one level past
   the heuristic's II.  A proven optimum above the heuristic's II means
   the oracle refuted a level at which the heuristic found a schedule:
   the row keeps it, and the check reports it.  Without a verdict at or
   below the heuristic's II the heuristic schedule is the witness.  A
   loop the heuristic gives up on is data, as in [repro gap]: [None]. *)
let solve config (l : Workload.Generator.loop) =
  let g = l.Workload.Generator.graph in
  let t0 = cpu () in
  match Span.with_ "sched.heuristic" (fun () -> heuristic config g) with
  | None -> None
  | Some o ->
      let heuristic_ii = o.Sched.Driver.ii in
      let horizon = Sched.Schedule.length o.Sched.Driver.schedule + heuristic_ii + 2 in
      let exact =
        Span.with_ "exact.solve" (fun () ->
            Sched.Exact.minimum_ii ~horizon ~max_ii:(heuristic_ii + 1) ~max_conflicts
              ~max_cegar config g)
      in
      let row exact_ii proven witness stats =
        Some { loop = l; heuristic_ii; exact_ii; proven; witness; stats; seconds = cpu () -. t0 }
      in
      (match exact with
      | Ok f when f.Sched.Exact.f_ii <= heuristic_ii || f.Sched.Exact.f_proven ->
          Sched.Exact.(row f.f_ii f.f_proven f.f_schedule (Some f.f_stats))
      | Ok f -> row heuristic_ii false o.Sched.Driver.schedule (Some f.Sched.Exact.f_stats)
      | Error _ -> row heuristic_ii false o.Sched.Driver.schedule None)

let check config r =
  let id = r.loop.Workload.Generator.id in
  let c = Checks.schedule ~config r.loop r.witness in
  ( c,
    c.Checks.problems
    @ Checks.oracle ~id ~mii:(Ddg.Mii.mii config r.loop.Workload.Generator.graph)
        ~exact_ii:r.exact_ii ~heuristic_ii:r.heuristic_ii )

(* A round runs on one domain and never waits, so its time and each
   loop's are on the CPU clock. *)
type round = { seconds : float; wall : float; rows : row list; errors : string list }

let round config loops =
  Gc.compact ();
  let cpu0 = cpu () in
  let t0 = now () in
  let results =
    List.map
      (fun l ->
        match solve config l with
        | row -> Ok row
        | exception e -> Error (l.Workload.Generator.id ^ ": " ^ Printexc.to_string e))
      loops
  in
  let wall = now () -. t0 in
  {
    seconds = cpu () -. cpu0;
    wall;
    rows = List.filter_map (function Ok r -> r | Error _ -> None) results;
    errors = List.filter_map (function Error e -> Some e | Ok _ -> None) results;
  }

let run ~small ~seed ~seconds ~trace =
  let config = config config_name in
  let (suite_loops, random), setup_s =
    set_up (fun () -> loops ~small ~seed (suite ~small ()))
  in
  let loops = suite_loops @ random in
  let measured, peak =
    if not trace then rounds ~seconds (fun () -> round config loops)
    else begin
      let warm_up = untraced (fun () -> round config loops) in
      let plain = untraced (fun () -> round config loops) in
      let r = round config loops in
      ([ warm_up; plain; r ], 0.)
    end
  in
  let r0 = List.hd measured in
  let checked = List.map (check config) r0.rows in
  let problems = List.concat_map snd checked in
  let drift =
    List.concat_map
      (fun r ->
        if List.map (fun x -> (x.exact_ii, x.proven)) r.rows
           <> List.map (fun x -> (x.exact_ii, x.proven)) r0.rows
        then [ "oracle-gap: exact IIs or proven bits changed between rounds" ]
        else [])
      measured
  in
  (* Only the suite's loops carry profiled visit counts worth summing. *)
  let mcycles =
    List.fold_left2
      (fun a r (c, _) ->
        if List.memq r.loop suite_loops then
          a +. (float_of_int (r.loop.Workload.Generator.visits * c.Checks.cycles) /. 1e6)
        else a)
      0. r0.rows checked
  in
  let proven = List.length (List.filter (fun r -> r.proven) r0.rows) in
  let attempted = List.length loops * List.length measured in
  let failed = List.fold_left (fun a r -> a + List.length r.errors) 0 measured in
  let metrics =
    if not trace then
      let timed = timed_rounds measured in
      let pass_s = pass_seconds (List.map (fun (r : round) -> r.seconds) timed) in
      (* Latency percentiles over the suite's loops: the generated
         loops change with the seed, and their median with them. *)
      let lat =
        op_medians
          (List.concat_map
             (fun r ->
               List.filter_map
                 (fun (x : row) ->
                   if List.memq x.loop suite_loops then
                     Some (x.loop.Workload.Generator.id, 1, x.seconds)
                   else None)
                 r.rows)
             timed)
      in
      [
        ("setup_s", setup_s);
        ("pass_s", pass_s);
        ("peak_rss_mb", peak);
        ("code_mcycles", mcycles);
        ("rps", ratio (float_of_int (List.length loops)) pass_s);
        ("p50_ms", 1000. *. percentile lat 0.5);
        ("p99_ms", 1000. *. percentile lat 0.99);
        ("proven_loops", float_of_int proven);
      ]
    else begin
      let plain = List.nth measured 1 and r = List.nth measured 2 in
      let stats = List.filter_map (fun x -> x.stats) r.rows in
      let sum f = float_of_int (List.fold_left (fun a s -> a + f s) 0 stats) in
      let props = sum (fun s -> s.Sched.Exact.s_propagations) in
      [
        ("workload.generate_s", median (Span.durations "workload.generate"));
        ("exact.solve_s", Span.total "exact.solve");
        ("sched.heuristic_s", Span.total "sched.heuristic");
        ("sat.props_per_s", ratio props (Span.total "exact.solve"));
        ("sat.conflicts", sum (fun s -> s.Sched.Exact.s_conflicts));
        ("sat.propagations", props);
        ("exact.vars", sum (fun s -> s.Sched.Exact.s_vars));
        ("exact.levels", sum (fun s -> s.Sched.Exact.s_levels));
        ("exact.cegar_rounds", sum (fun s -> s.Sched.Exact.s_cegar_rounds));
        ("check.validate_s", Span.total "check.validate");
        ("sim.lockstep_s", Span.total "sim.lockstep");
        ("sim.schedules", float_of_int (Span.count "sim.lockstep"));
        ("pool.cpu_s", r.seconds);
        ("pool.cpu_per_wall", ratio r.seconds r.wall);
        ("trace.overhead_s", r.seconds -. plain.seconds);
      ]
    end
  in
  List.iter (List.iter prerr_endline) (List.map (fun r -> r.errors) measured);
  { attempted; failed; problems = problems @ drift; metrics }
