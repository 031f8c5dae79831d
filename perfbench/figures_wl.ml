(* figures-cold and figures-warm: all eleven figure sections over the
   suite on two domains, without a store (cold) or read back from a
   store a cold pass filled during set-up (warm). *)

open Common

let jobs = 2

let sections : (string * (Metrics.Suite.t -> string)) list =
  Metrics.Figures.
    [
      ("table1", fun _ -> table1 ());
      ("fig1", fig1);
      ("fig7", fig7);
      ("fig8", fig8);
      ("fig9", fig9);
      ("fig10", fig10);
      ("fig12", fig12);
      ("sec4_stats", sec4);
      ("sec4_regs", sec4_regs);
      ("sec51_length", sec51);
      ("sec52_macro", sec52);
    ]

type pass = {
  text : string;
  seconds : float;
  section_s : (string * float) list;  (** each section's time *)
  cpu_s : float;
  errors : string list;  (** sections that raised *)
}

let pass ~jobs ?store loops =
  let cpu0 = cpu () in
  let t0 = now () in
  let suite = Metrics.Suite.create ~loops ~jobs ?store () in
  let rendered =
    List.map
      (fun (id, render) ->
        let r, dt =
          timed (fun () ->
              Span.with_ ("figures." ^ id) (fun () ->
                  match render suite with
                  | text -> Ok text
                  | exception e -> Error (id ^ ": " ^ Printexc.to_string e)))
        in
        (id, r, dt))
      sections
  in
  let seconds = now () -. t0 in
  ( suite,
    {
      text =
        String.concat ""
          (List.map
             (fun (id, r, _) ->
               Printf.sprintf "=== %s ===\n%s\n" id
                 (match r with Ok t -> t | Error _ -> "FAILED"))
             rendered);
      seconds;
      section_s = List.map (fun (id, _, dt) -> (id, dt)) rendered;
      cpu_s = cpu () -. cpu0;
      errors =
        List.filter_map (fun (_, r, _) -> match r with Error e -> Some e | Ok _ -> None) rendered;
    } )

(* The schedules code_mcycles sums: every loop, baseline and
   replication, at the code configuration — all cached by the pass. *)
type code = {
  n_checked : int;
  mcycles : float;
  at_mii : int;
  comms_removed : int;
  added_instances : int;
  code_problems : string list;
}

let check_code suite =
  let config = config code_config in
  let runs =
    List.concat_map
      (fun mode -> Metrics.Suite.runs suite mode config)
      Metrics.Experiment.[ Baseline; Replication ]
  in
  List.fold_left
    (fun acc (r : Metrics.Experiment.loop_run) ->
      let c =
        Checks.schedule ~config r.Metrics.Experiment.loop
          r.Metrics.Experiment.outcome.Sched.Driver.schedule
      in
      let removed, added =
        match r.Metrics.Experiment.repl_stats with
        | Some s -> Replication.Replicate.(s.comms_removed, s.added_instances)
        | None -> (0, 0)
      in
      {
        n_checked = acc.n_checked + 1;
        mcycles =
          acc.mcycles
          +. float_of_int (r.Metrics.Experiment.loop.Workload.Generator.visits * c.Checks.cycles)
             /. 1e6;
        at_mii = (acc.at_mii + if c.Checks.at_mii then 1 else 0);
        comms_removed = acc.comms_removed + removed;
        added_instances = acc.added_instances + added;
        code_problems = acc.code_problems @ c.Checks.problems;
      })
    {
      n_checked = 0;
      mcycles = 0.;
      at_mii = 0;
      comms_removed = 0;
      added_instances = 0;
      code_problems = [];
    }
    runs

(* One measured round: a pass, then the checks of its output (outside
   the pass time).  [expect] is the cold text a warm pass must equal.
   The round keeps no reference to the suite, so rounds do not pile up
   in memory. *)
type round = { p : pass; code : code; problems : string list }

let round ~jobs ?store ?expect loops =
  Gc.compact ();
  let suite, p = pass ~jobs ?store loops in
  let code = check_code suite in
  let text_problems =
    match expect with
    | Some cold when not (String.equal cold p.text) ->
        [ "figures-warm: text differs from the cold pass's text" ]
    | _ -> []
  in
  List.iter prerr_endline p.errors;
  { p; code; problems = code.code_problems @ text_problems }

let store_dir work = Filename.concat work "store"
let cold_text work = Filename.concat work "cold.txt"
let fill_file work = Filename.concat work "fill.txt"

let rec remove path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* The end-to-end figures every figures round yields.  The operation a
   user asks for is a figure section: rps counts sections per second of
   the pass (pass_s in another form), and p50/p99 are over the
   sections' times inside the pass. *)
let e2e ~setup_s ~peak rounds =
  let r0 = List.hd rounds and timed = timed_rounds rounds in
  let lat =
    op_medians (List.concat_map (fun r -> List.map (fun (k, dt) -> (k, 1, dt)) r.p.section_s) timed)
  in
  let pass_s = pass_seconds (List.map (fun r -> r.p.seconds) timed) in
  [
    ("setup_s", setup_s);
    ("pass_s", pass_s);
    ("peak_rss_mb", peak);
    ("code_mcycles", r0.code.mcycles);
    ("rps", ratio (float_of_int (List.length sections)) pass_s);
    ("p50_ms", 1000. *. percentile lat 0.5);
    ("p99_ms", 1000. *. percentile lat 0.99);
    ("proven_loops", float_of_int r0.code.at_mii);
  ]

let counts rounds =
  let attempted =
    List.fold_left (fun a r -> a + List.length sections + r.code.n_checked) 0 rounds
  in
  let failed = List.fold_left (fun a r -> a + List.length r.p.errors) 0 rounds in
  let drift =
    match rounds with
    | r0 :: rest
      when List.exists (fun r -> r.code.mcycles <> r0.code.mcycles || r.code.at_mii <> r0.code.at_mii) rest ->
        [ "figures: code cycles or proven count changed between rounds" ]
    | _ -> []
  in
  (attempted, failed, List.concat_map (fun r -> r.problems) rounds @ drift)

let code_layers (r : round) =
  [
    ("replication.comms_removed", float_of_int r.code.comms_removed);
    ("replication.added_instances", float_of_int r.code.added_instances);
    ("sim.lockstep_s", Span.total "sim.lockstep");
    ("sim.schedules", float_of_int (Span.count "sim.lockstep"));
    ("check.validate_s", Span.total "check.validate");
  ]

let section_layers (r : round) =
  List.map (fun (id, _) -> ("figures." ^ id ^ "_s", Span.total ("figures." ^ id))) sections
  @ [ ("pool.cpu_s", r.p.cpu_s); ("pool.cpu_per_wall", ratio r.p.cpu_s r.p.seconds) ]

(* The traced rounds: a warm-up and an untraced pass for the tracing
   overhead, one traced pass at [jobs] domains for time per layer, then
   a one-domain cold pass for allocation per phase, which Gc.quick_stat
   can only attribute on one domain. *)
let traced ~run ~one_domain =
  let warm_up = untraced run in
  let plain = untraced run in
  Sched.Profile.set_enabled true;
  let r = run () in
  let times = phase_seconds () in
  Sched.Profile.set_enabled true;
  let one = untraced one_domain in
  let phase_sum = List.fold_left (fun a p -> a +. Sched.Profile.seconds p) 0. Sched.Profile.phases in
  let alloc = phase_mwords () @ [ ("figures.outside_phases_s", one.p.seconds -. phase_sum) ] in
  Sched.Profile.set_enabled false;
  let layers =
    times @ alloc @ section_layers r @ code_layers r
    @ [ ("trace.overhead_s", r.p.seconds -. plain.p.seconds) ]
  in
  ([ warm_up; plain; r ], layers)

let cold ~small ~seconds ~trace =
  let loops, setup_s = set_up (suite ~small) in
  if not trace then begin
    let rounds, peak = rounds ~seconds (fun () -> round ~jobs loops) in
    let attempted, failed, problems = counts rounds in
    { attempted; failed; problems; metrics = e2e ~setup_s ~peak rounds }
  end
  else begin
    let rounds, layers =
      traced
        ~run:(fun () -> round ~jobs loops)
        ~one_domain:(fun () -> round ~jobs:1 loops)
    in
    let attempted, failed, problems = counts rounds in
    let extra = fingerprint_and_json loops (wire_graphs loops) in
    {
      attempted;
      failed;
      problems;
      metrics =
        (("workload.generate_s", setup_s) :: layers)
        @ extra;
    }
  end

(* Set-up of figures-warm, in its own process: a cold pass that fills
   an on-disk store, saved; the cold text is kept for the warm check. *)
let fill ~small ~work =
  remove work;
  mkdir_p work;
  let t0 = now () in
  let loops = suite ~small () in
  let store = Metrics.Store.create ~dir:(store_dir work) () in
  let _, p = pass ~jobs ~store loops in
  let was = !Span.on in
  Span.on := true;
  Span.with_ "store.save" (fun () -> Metrics.Store.save store);
  Span.on := was;
  let save_s = Span.total "store.save" in
  let setup_s = now () -. t0 in
  write_file (cold_text work) p.text;
  let written = float_of_int (Metrics.Store.stats store).Metrics.Store.bytes_written in
  write_file (fill_file work)
    (Printf.sprintf "%s %s %s\n" (number setup_s) (number save_s) (number written));
  if p.errors <> [] then begin
    List.iter prerr_endline p.errors;
    exit 1
  end

let store_documents work =
  let dir = store_dir work in
  Array.to_list (Sys.readdir dir)
  |> List.sort compare
  |> List.map (fun f -> read_file (Filename.concat dir f))

let warm ~small ~seconds ~trace ~work =
  let fill_setup_s, save_s, written =
    Scanf.sscanf (read_file (fill_file work)) " %f %f %f" (fun a b c -> (a, b, c))
  in
  let expect = read_file (cold_text work) in
  let loops, gen_s = set_up (suite ~small) in
  let setup_s = fill_setup_s +. gen_s in
  let store_stats = ref [] in
  let warm_round () =
    let store = Metrics.Store.create ~dir:(store_dir work) () in
    let r = round ~jobs ~store ~expect loops in
    let st = Metrics.Store.stats store in
    store_stats := st :: !store_stats;
    if st.Metrics.Store.misses > 0 then
      { r with problems = r.problems @ [ Printf.sprintf "figures-warm: %d store misses" st.Metrics.Store.misses ] }
    else r
  in
  if not trace then begin
    let rounds, peak = rounds ~seconds warm_round in
    let attempted, failed, problems = counts rounds in
    { attempted; failed; problems; metrics = e2e ~setup_s ~peak rounds }
  end
  else begin
    (* figures-cold is not among BENCHMARK.json's workloads (it is not
       steady on a busy 2-core host; see README.md), so this traced run
       also measures a cold pass's allocation per phase *)
    let rounds, layers =
      traced ~run:warm_round ~one_domain:(fun () -> round ~jobs:1 loops)
    in
    let attempted, failed, problems = counts rounds in
    let st = List.hd !store_stats in
    let lookups = float_of_int (st.Metrics.Store.hits + st.Metrics.Store.misses) in
    let extra = fingerprint_and_json loops (store_documents work) in
    {
      attempted;
      failed;
      problems;
      metrics =
        (("workload.generate_s", gen_s) :: layers)
        @ extra
        @ [
            ("store.lookups", lookups);
            ("store.hit_rate", ratio (float_of_int st.Metrics.Store.hits) lookups);
            ("store.mb_read", float_of_int st.Metrics.Store.bytes_read /. 1e6);
            ("store.mb_written", written /. 1e6);
            ("store.save_s", save_s);
          ];
    }
  end
