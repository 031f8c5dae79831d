(* The benchmark's executable.  perfbench/run.py builds and drives it:

     perfbench.exe run --workload W --seed N --seconds S --trace 0|1 --work DIR [--small]
     perfbench.exe fill --work DIR [--small]      (figures-warm's set-up)
     perfbench.exe selftest --work DIR

   [run] prints, as its last line, one JSON object with the operation
   counts, whether every check passed, and the metrics by name; check
   failures go to stderr.  A traced run also writes its spans to
   DIR/spans.jsonl. *)

open Common

let run ~workload ~seed ~seconds ~trace ~work ~small =
  Span.on := trace;
  let o =
    match workload with
    | "figures-cold" -> Figures_wl.cold ~small ~seconds ~trace
    | "figures-warm" -> Figures_wl.warm ~small ~seconds ~trace ~work
    | "serve-mixed" -> Serve_wl.run ~small ~seed ~seconds ~trace
    | "oracle-gap" -> Oracle_wl.run ~small ~seed ~seconds ~trace
    | w -> failwith ("perfbench: unknown workload " ^ w)
  in
  if trace then begin
    mkdir_p work;
    Span.write (Filename.concat work "spans.jsonl")
  end;
  List.iter (fun p -> prerr_endline ("perfbench: check failed: " ^ p)) o.problems;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (o.problems = []) o.attempted o.failed
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k (number v)) o.metrics))

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let req name =
    match opt name args with
    | Some v -> v
    | None -> failwith ("perfbench: missing " ^ name)
  in
  let small = List.mem "--small" args in
  match args with
  | "run" :: _ ->
      run ~workload:(req "--workload") ~seed:(int_of_string (req "--seed"))
        ~seconds:(float_of_string (req "--seconds"))
        ~trace:(req "--trace" = "1") ~work:(req "--work") ~small
  | "fill" :: _ -> Figures_wl.fill ~small ~work:(req "--work")
  | "selftest" :: _ -> Selftest.run ~work:(req "--work")
  | _ ->
      prerr_endline "usage: perfbench.exe (run|fill|selftest) ...";
      exit 2
