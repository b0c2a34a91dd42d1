module Json = Guillotine_util.Json

(* The largest summed doorbell bound admitted for a roster: the same
   figure the solo pass allows one loop. *)
let aggregate_doorbell_burst = 64

type report = {
  roster_label : string;
  roster : string list;
  verdict : Vet.verdict;
  findings : Lints.finding list;
  members : Summary.t list;
  pairs_checked : int;
  aggregate_doorbell : int option;
}

let finding rule detail =
  { Lints.rule; severity = Lints.Error; addr = None; detail }

(* ------------------------------------------------------------------ *)
(* Pairwise interference                                               *)
(* ------------------------------------------------------------------ *)

(* One direction: [w] the (potential) writer, [v] the victim. *)
let directed_conflicts (w : Summary.t) (v : Summary.t) =
  let shared = Summary.intersect w.Summary.grant_span (Summary.footprint v) in
  let overlap =
    if shared = [] then []
    else
      [
        finding "interfere.window_overlap"
          (Printf.sprintf
             "%s holds a writable grant over %s inside %s's footprint — \
              shared window with mismatched ownership"
             w.Summary.label (Summary.pp_segs shared) v.Summary.label);
      ]
  in
  let desc = Summary.intersect w.Summary.may_write v.Summary.descriptor_span in
  let descriptor =
    if desc = [] then []
    else
      [
        finding "interfere.dma_descriptor_rewrite"
          (Printf.sprintf
             "%s's may-write set reaches %s's DMA descriptor region at %s — \
              descriptors can be rewritten between check and use"
             w.Summary.label v.Summary.label (Summary.pp_segs desc));
      ]
  in
  let wx = Summary.intersect w.Summary.dma_writable v.Summary.code_span in
  let dma_wx =
    if wx = [] then []
    else
      [
        finding "interfere.dma_wx"
          (Printf.sprintf
             "%s's DMA engine can write %s — executable pages of %s (W^X \
              across DMA)"
             w.Summary.label (Summary.pp_segs wx) v.Summary.label);
      ]
  in
  let cross =
    Summary.intersect w.Summary.dma_writable
      (Summary.normalize_segs (v.Summary.data_span @ v.Summary.grant_span))
  in
  let dma_cross =
    if cross = [] then []
    else
      [
        finding "interfere.dma_cross_write"
          (Printf.sprintf
             "%s's DMA engine can write %s inside %s's data/grant footprint"
             w.Summary.label (Summary.pp_segs cross) v.Summary.label);
      ]
  in
  overlap @ descriptor @ dma_wx @ dma_cross

let sort_findings findings =
  List.sort_uniq
    (fun (a : Lints.finding) (b : Lints.finding) ->
      compare (a.rule, a.detail) (b.rule, b.detail))
    findings

(* Symmetric by construction: the pair is canonicalized on label before
   either direction runs, so [conflicts a b] and [conflicts b a] walk
   the directions in the same order and sort identically. *)
let conflicts a b =
  let a, b =
    if a.Summary.label <= b.Summary.label then (a, b) else (b, a)
  in
  sort_findings (directed_conflicts a b @ directed_conflicts b a)

(* ------------------------------------------------------------------ *)
(* Roster-level checks                                                 *)
(* ------------------------------------------------------------------ *)

let member_findings (m : Summary.t) =
  let rejected =
    if m.Summary.verdict = Vet.Reject then
      [
        finding "interfere.member_rejected"
          (Printf.sprintf
             "%s was rejected by solo vetting (%d errors) — a roster is no \
              better than its worst member"
             m.Summary.label
             (List.length (Vet.errors m.Summary.report)));
      ]
    else []
  in
  let wx =
    Summary.intersect m.Summary.dma_writable m.Summary.code_span
  in
  let dma_self =
    if wx = [] then []
    else
      [
        finding "interfere.dma_wx"
          (Printf.sprintf
             "%s's DMA engine can write %s — its own executable pages: a \
              loader that fetches code it never shipped (W^X across DMA)"
             m.Summary.label (Summary.pp_segs wx));
      ]
  in
  rejected @ dma_self

let aggregate_doorbell members =
  List.fold_left
    (fun acc (m : Summary.t) ->
      match (acc, m.Summary.doorbell_bound) with
      | Some total, Some b -> Some (total + b)
      | _ -> None)
    (Some 0) members

let doorbell_findings total =
  match total with
  | Some t when t <= aggregate_doorbell_burst -> []
  | Some t ->
      [
        finding "interfere.doorbell_aggregate"
          (Printf.sprintf
             "co-admitted guests ring up to %d doorbells (aggregate budget \
              %d) — a storm assembled from individually-bounded bursts"
             t aggregate_doorbell_burst);
      ]
  | None ->
      [
        finding "interfere.doorbell_aggregate"
          (Printf.sprintf
             "co-admitted doorbell total has no static bound (aggregate \
              budget %d)"
             aggregate_doorbell_burst);
      ]

let rec pairs = function
  | [] -> []
  | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest

let check ?(label = "roster") members =
  let pair_list = pairs members in
  let total = aggregate_doorbell members in
  let findings =
    sort_findings
      (List.concat_map member_findings members
      @ List.concat_map (fun (a, b) -> conflicts a b) pair_list
      @ doorbell_findings total)
  in
  let worst =
    List.fold_left
      (fun acc (f : Lints.finding) -> max acc (Lints.severity_rank f.severity))
      0 findings
  in
  let verdict =
    if worst >= Lints.severity_rank Lints.Error then Vet.Reject
    else if worst >= Lints.severity_rank Lints.Warn then Vet.Admit_with_warnings
    else Vet.Admit
  in
  {
    roster_label = label;
    roster = List.map (fun (m : Summary.t) -> m.Summary.label) members;
    verdict;
    findings;
    members;
    pairs_checked = List.length pair_list;
    aggregate_doorbell = total;
  }

let run ?label specs = check ?label (List.map Summary.summarize specs)

let errors r =
  List.filter (fun (f : Lints.finding) -> f.severity = Lints.Error) r.findings

let warnings r =
  List.filter (fun (f : Lints.finding) -> f.severity = Lints.Warn) r.findings

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

let count_severity sev r =
  List.length
    (List.filter (fun (f : Lints.finding) -> f.severity = sev) r.findings)

let to_text r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "COADMIT %s: %s\n" r.roster_label
       (String.uppercase_ascii (Vet.verdict_label r.verdict)));
  Buffer.add_string b
    (Printf.sprintf "roster           %d guests: %s\n" (List.length r.roster)
       (String.concat ", " r.roster));
  Buffer.add_string b
    (Printf.sprintf "analysis         %d pairwise checks, aggregate doorbells %s (budget %d)\n"
       r.pairs_checked
       (Summary.pp_doorbell r.aggregate_doorbell)
       aggregate_doorbell_burst);
  Buffer.add_string b
    (Printf.sprintf "findings         %d error, %d warn, %d info\n"
       (count_severity Lints.Error r)
       (count_severity Lints.Warn r)
       (count_severity Lints.Info r));
  List.iter
    (fun (f : Lints.finding) ->
      Buffer.add_string b
        (Printf.sprintf "  [%-5s] %-33s %s\n"
           (Lints.severity_label f.severity)
           f.rule f.detail))
    r.findings;
  List.iter
    (fun m ->
      Buffer.add_string b (Summary.to_text m);
      Buffer.add_char b '\n')
    r.members;
  Buffer.contents b

let json_segs segs =
  "["
  ^ String.concat ","
      (List.map
         (fun (s : Summary.seg) ->
           Printf.sprintf "{\"base\":%d,\"len\":%d}" s.base s.len)
         segs)
  ^ "]"

let to_json r =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{";
  Buffer.add_string b
    (Printf.sprintf "\"roster_label\":\"%s\"" (Json.escape r.roster_label));
  Buffer.add_string b
    (Printf.sprintf ",\"verdict\":\"%s\"" (Vet.verdict_label r.verdict));
  Buffer.add_string b ",\"roster\":[";
  List.iteri
    (fun i name ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\"" (Json.escape name)))
    r.roster;
  Buffer.add_string b "]";
  Buffer.add_string b (Printf.sprintf ",\"pairs_checked\":%d" r.pairs_checked);
  (match r.aggregate_doorbell with
  | Some t -> Buffer.add_string b (Printf.sprintf ",\"aggregate_doorbell\":%d" t)
  | None -> Buffer.add_string b ",\"aggregate_doorbell\":null");
  Buffer.add_string b
    (Printf.sprintf ",\"aggregate_doorbell_budget\":%d"
       aggregate_doorbell_burst);
  Buffer.add_string b
    (Printf.sprintf ",\"counts\":{\"error\":%d,\"warn\":%d,\"info\":%d}"
       (count_severity Lints.Error r)
       (count_severity Lints.Warn r)
       (count_severity Lints.Info r));
  Buffer.add_string b ",\"findings\":[";
  List.iteri
    (fun i (f : Lints.finding) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"rule\":\"%s\",\"severity\":\"%s\",\"detail\":\"%s\"}"
           (Json.escape f.rule)
           (Lints.severity_label f.severity)
           (Json.escape f.detail)))
    r.findings;
  Buffer.add_string b "]";
  Buffer.add_string b ",\"members\":[";
  List.iteri
    (fun i (m : Summary.t) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{";
      Buffer.add_string b
        (Printf.sprintf "\"label\":\"%s\"" (Json.escape m.Summary.label));
      Buffer.add_string b
        (Printf.sprintf ",\"verdict\":\"%s\""
           (Vet.verdict_label m.Summary.verdict));
      Buffer.add_string b
        (Printf.sprintf ",\"code\":%s" (json_segs m.Summary.code_span));
      Buffer.add_string b
        (Printf.sprintf ",\"data\":%s" (json_segs m.Summary.data_span));
      Buffer.add_string b
        (Printf.sprintf ",\"grant\":%s" (json_segs m.Summary.grant_span));
      Buffer.add_string b
        (Printf.sprintf ",\"may_write\":%s" (json_segs m.Summary.may_write));
      Buffer.add_string b
        (Printf.sprintf ",\"may_read\":%s" (json_segs m.Summary.may_read));
      Buffer.add_string b
        (Printf.sprintf ",\"may_flush\":%s" (json_segs m.Summary.may_flush));
      Buffer.add_string b
        (Printf.sprintf ",\"dma_writable\":%s"
           (json_segs m.Summary.dma_writable));
      Buffer.add_string b
        (Printf.sprintf ",\"descriptors\":%s"
           (json_segs m.Summary.descriptor_span));
      (match m.Summary.doorbell_bound with
      | Some d -> Buffer.add_string b (Printf.sprintf ",\"doorbell_bound\":%d" d)
      | None -> Buffer.add_string b ",\"doorbell_bound\":null");
      Buffer.add_string b
        (Printf.sprintf ",\"dma_reaches_code\":%b" m.Summary.dma_reaches_code);
      Buffer.add_string b "}")
    r.members;
  Buffer.add_string b "]}";
  Buffer.contents b
