module Asm = Guillotine_isa.Asm
module Json = Guillotine_util.Json

(* CFG/abstract-interpretation alternations spent resolving [Jr]
   targets. *)
let max_indirect_rounds = 3

type verdict = Admit | Admit_with_warnings | Reject

let verdict_label = function
  | Admit -> "admit"
  | Admit_with_warnings -> "admit-with-warnings"
  | Reject -> "reject"

type report = {
  label : string;
  verdict : verdict;
  findings : Lints.finding list;
  instr_count : int;
  image_words : int;
  code_pages : int;
  data_pages : int;
  extra_windows : int;
  indirect_rounds : int;
  widenings : int;
}

let errors r =
  List.filter (fun (f : Lints.finding) -> f.severity = Lints.Error) r.findings

let warnings r =
  List.filter (fun (f : Lints.finding) -> f.severity = Lints.Warn) r.findings

let analyze ?(label = "guest") ?(extra = [])
    ~code_pages ~data_pages (program : Asm.program) =
  (* Alternate CFG construction with the abstract interpreter: each
     round may collapse a [Jr] operand to a constant, which adds edges
     and can expose more code (and more constants) to the next round.
     The loop is monotone in resolved targets, so it terminates; the
     round cap just bounds the cost. *)
  let rec converge round jr_targets =
    let cfg = Cfg.build ~jr_targets ~code_pages program in
    let absint =
      Absint.analyze ~cfg ~code_pages ~data_pages ~extra ()
    in
    let merged =
      List.fold_left
        (fun acc (addr, targets) ->
          let known =
            match List.assoc_opt addr acc with Some t -> t | None -> []
          in
          let combined = List.sort_uniq compare (targets @ known) in
          (addr, combined) :: List.remove_assoc addr acc)
        jr_targets absint.Absint.jr_resolved
    in
    let merged = List.sort compare merged in
    if merged = jr_targets || round >= max_indirect_rounds then
      (round, cfg, absint)
    else converge (round + 1) merged
  in
  let rounds, cfg, absint = converge 1 [] in
  let findings = Lints.run ~cfg ~absint in
  let worst =
    List.fold_left
      (fun acc (f : Lints.finding) ->
        max acc (Lints.severity_rank f.severity))
      0 findings
  in
  let verdict =
    if worst >= Lints.severity_rank Lints.Error then Reject
    else if worst >= Lints.severity_rank Lints.Warn then Admit_with_warnings
    else Admit
  in
  let report =
    {
      label;
      verdict;
      findings;
      instr_count = Cfg.reachable_instr_count cfg;
      image_words = cfg.Cfg.image_words;
      code_pages;
      data_pages;
      extra_windows = List.length extra;
      indirect_rounds = rounds;
      widenings = absint.Absint.widenings;
    }
  in
  (report, cfg, absint)

let run ?label ?extra ~code_pages ~data_pages program =
  let report, _, _ = analyze ?label ?extra ~code_pages ~data_pages program in
  report

let count_severity sev r =
  List.length
    (List.filter (fun (f : Lints.finding) -> f.severity = sev) r.findings)

let to_text r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "VET %s: %s\n" r.label
       (String.uppercase_ascii (verdict_label r.verdict)));
  Buffer.add_string b
    (Printf.sprintf "image            %d words (%d reachable instructions)\n"
       r.image_words r.instr_count);
  Buffer.add_string b
    (Printf.sprintf "grant            %d code + %d data pages, %d extra windows\n"
       r.code_pages r.data_pages r.extra_windows);
  Buffer.add_string b
    (Printf.sprintf "analysis         %d indirect rounds, %d widenings\n"
       r.indirect_rounds r.widenings);
  Buffer.add_string b
    (Printf.sprintf "findings         %d error, %d warn, %d info\n"
       (count_severity Lints.Error r)
       (count_severity Lints.Warn r)
       (count_severity Lints.Info r));
  List.iter
    (fun (f : Lints.finding) ->
      let where =
        match f.addr with
        | Some a -> Printf.sprintf "@%d" a
        | None -> "@-"
      in
      Buffer.add_string b
        (Printf.sprintf "  [%-5s] %-30s %-6s %s\n"
           (Lints.severity_label f.severity)
           f.rule where f.detail))
    r.findings;
  Buffer.contents b

let to_json r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{";
  Buffer.add_string b (Printf.sprintf "\"label\":\"%s\"" (Json.escape r.label));
  Buffer.add_string b
    (Printf.sprintf ",\"verdict\":\"%s\"" (verdict_label r.verdict));
  Buffer.add_string b (Printf.sprintf ",\"image_words\":%d" r.image_words);
  Buffer.add_string b (Printf.sprintf ",\"instr_count\":%d" r.instr_count);
  Buffer.add_string b (Printf.sprintf ",\"code_pages\":%d" r.code_pages);
  Buffer.add_string b (Printf.sprintf ",\"data_pages\":%d" r.data_pages);
  Buffer.add_string b (Printf.sprintf ",\"extra_windows\":%d" r.extra_windows);
  Buffer.add_string b
    (Printf.sprintf ",\"indirect_rounds\":%d" r.indirect_rounds);
  Buffer.add_string b (Printf.sprintf ",\"widenings\":%d" r.widenings);
  Buffer.add_string b
    (Printf.sprintf ",\"counts\":{\"error\":%d,\"warn\":%d,\"info\":%d}"
       (count_severity Lints.Error r)
       (count_severity Lints.Warn r)
       (count_severity Lints.Info r));
  Buffer.add_string b ",\"findings\":[";
  List.iteri
    (fun i (f : Lints.finding) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{";
      Buffer.add_string b
        (Printf.sprintf "\"rule\":\"%s\"" (Json.escape f.rule));
      Buffer.add_string b
        (Printf.sprintf ",\"severity\":\"%s\""
           (Lints.severity_label f.severity));
      (match f.addr with
      | Some a -> Buffer.add_string b (Printf.sprintf ",\"addr\":%d" a)
      | None -> Buffer.add_string b ",\"addr\":null");
      Buffer.add_string b
        (Printf.sprintf ",\"detail\":\"%s\"" (Json.escape f.detail));
      Buffer.add_string b "}")
    r.findings;
  Buffer.add_string b "]}";
  Buffer.contents b
