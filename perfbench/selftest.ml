(* Self-tests of the benchmark's checks: the small-input mode of all
   four workloads must pass every check with no failed operation, and
   one sabotaged output per check must be caught. *)

open Common

let run ~work =
  let failures = ref 0 in
  let expect name ok =
    if not ok then incr failures;
    Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name
  in
  let clean (o : outcome) =
    List.iter (fun p -> prerr_endline ("  " ^ p)) o.problems;
    o.problems = [] && o.failed = 0 && o.attempted > 0
  in
  List.iter
    (fun trace ->
      let tag = if trace then " (traced)" else "" in
      Span.on := trace;
      expect ("figures-cold small" ^ tag) (clean (Figures_wl.cold ~small:true ~seconds:0. ~trace));
      Figures_wl.fill ~small:true ~work;
      Span.on := trace;
      expect ("figures-warm small" ^ tag)
        (clean (Figures_wl.warm ~small:true ~seconds:0. ~trace ~work));
      expect ("serve-mixed small" ^ tag)
        (clean (Serve_wl.run ~small:true ~seed:1 ~seconds:0. ~trace));
      expect ("oracle-gap small" ^ tag)
        (clean (Oracle_wl.run ~small:true ~seed:1 ~seconds:0. ~trace)))
    [ false; true ];
  Span.on := false;
  let config = config code_config in
  let loop = List.hd (small_loops ()) in
  let run =
    match Metrics.Experiment.run_loop Metrics.Experiment.Replication config loop with
    | Ok r -> r
    | Error e -> failwith (Sched.Sched_error.to_string e)
  in
  let s = run.Metrics.Experiment.outcome.Sched.Driver.schedule in
  expect "a real schedule passes" ((Checks.schedule ~config loop s).Checks.problems = []);
  let busy =
    List.find (fun i -> i.Sim.Faults.name = "oversubscribe-fu") Sim.Faults.catalog
  in
  (match busy.Sim.Faults.apply s with
  | None -> expect "sabotage: op moved onto a busy slot (no candidate)" false
  | Some bad ->
      expect "sabotage: op moved onto a busy slot is caught"
        ((Checks.schedule ~config loop bad).Checks.problems <> []));
  let off_by_one ~trip ~length ~ii = Checks.formula_cycles ~trip ~length ~ii + ii in
  expect "sabotage: code cycles disagreeing with the simulator are caught"
    ((Checks.schedule ~formula:off_by_one ~config loop s).Checks.problems <> []);
  let reply =
    Metrics.Serve.direct_reply ~mode:Metrics.Experiment.Replication ~config loop
  in
  let flipped = Bytes.of_string reply in
  let i = String.length reply / 2 in
  Bytes.set flipped i (if reply.[i] = '0' then '1' else '0');
  expect "an equal serve reply passes" (Checks.reply ~id:"r" ~expected:reply reply = []);
  expect "sabotage: a serve reply with one byte changed is caught"
    (Checks.reply ~id:"r" ~expected:reply (Bytes.to_string flipped) <> []);
  let key =
    { Serve_wl.kid = "r"; loop; mode = Metrics.Experiment.Replication; config }
  in
  let not_ok = {|{"id":"r","status":"give-up"}|} in
  (* a round that answered one line of two requests and shed a third *)
  let failed second ~shed =
    Serve_wl.failed_slots
      {
        Serve_wl.seconds = 0.;
        cpu_s = 0.;
        answered =
          [ (Serve_wl.line Serve_wl.Miss [ key; key ], 0., Metrics.Serve.batch_request [ reply; second ]) ];
        shed = (if shed then [ Serve_wl.line Serve_wl.Hit [ key ] ] else []);
        stats = Metrics.Json.Null;
      }
  in
  expect "ok serve replies count no failure" (failed reply ~shed:false = 0);
  expect "a non-ok serve reply and a shed line count as failed" (failed not_ok ~shed:true = 2);
  let oconfig = Common.config Oracle_wl.config_name in
  (match Oracle_wl.solve oconfig (Workload.Generator.random ~seed:7 ~nodes:6 ()) with
  | None -> expect "oracle row: the heuristic gave up" false
  | Some row ->
      expect "a real oracle row passes" (snd (Oracle_wl.check oconfig row) = []);
      let above =
        { row with Oracle_wl.exact_ii = row.Oracle_wl.heuristic_ii + 1; proven = true }
      in
      expect "sabotage: an exact II above the heuristic's is caught"
        (snd (Oracle_wl.check oconfig above) <> []));
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end
  else print_endline "all self-tests passed"
