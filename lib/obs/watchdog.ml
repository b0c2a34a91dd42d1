type severity = Info | Warning | Critical

let severity_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Critical -> "critical"

type predicate = Above of float | Below of float | Stale of float

type rule = {
  rule_name : string;
  metric : string;
  signal : Timeseries.signal;
  predicate : predicate;
  for_duration : float;
  clear_margin : float;
  clear_after : float;
  warmup : float;
  severity : severity;
  about : string;
}

let rule ?(signal = Timeseries.Last) ?(for_duration = 0.0) ?(clear_margin = 0.0)
    ?(clear_after = 0.0) ?(warmup = 0.0) ?(severity = Warning) ?(about = "")
    ~name ~metric predicate =
  {
    rule_name = name;
    metric;
    signal;
    predicate;
    for_duration;
    clear_margin;
    clear_after;
    warmup;
    severity;
    about;
  }

type alert = {
  rule : rule;
  raised_at : float;
  value : float;
  mutable cleared_at : float option;
}

type state =
  | Healthy
  | Pending of float            (* breaching since *)
  | Firing of alert
  | Recovering of alert * float (* below clear threshold since *)

(* [matched] is the series the rule's metric matched when last resolved
   against [resolved]: the store and its series count then.  Series are
   never removed, so the match can change only when the count does. *)
type tracked = {
  t_rule : rule;
  mutable st : state;
  mutable resolved : (Timeseries.t * int) option;
  mutable matched : Timeseries.series list;
}

type t = {
  mutable tracked : tracked list; (* insertion order: appended at set-up,
                                     walked on every evaluation *)
  mutable log : alert list;       (* reversed *)
}

let create () = { tracked = []; log = [] }

let add_rule t r =
  t.tracked <-
    t.tracked @ [ { t_rule = r; st = Healthy; resolved = None; matched = [] } ]

let alerts t = List.rev t.log

let matches tr series =
  let n = Timeseries.count series in
  (match tr.resolved with
  | Some (store, count) when store == series && count = n -> ()
  | Some _ | None ->
    tr.matched <-
      List.filter_map (Timeseries.find series)
        (Timeseries.matching series tr.t_rule.metric);
    tr.resolved <- Some (series, n));
  tr.matched

(* Reduce the rule's metric (possibly a family) to one scalar. *)
let observed tr ~now series =
  let rule = tr.t_rule in
  let value h =
    match rule.predicate with
    | Stale _ -> Timeseries.stale_for h ~now
    | Above _ | Below _ -> Timeseries.read h rule.signal
  in
  let pick =
    match rule.predicate with Below _ -> Float.min | Above _ | Stale _ -> Float.max
  in
  match matches tr series with
  | [] -> None
  | h :: hs -> Some (List.fold_left (fun acc h -> pick acc (value h)) (value h) hs)

let breach rule v =
  match rule.predicate with
  | Above th -> v > th
  | Below th -> v < th
  | Stale s -> v > s

(* Hysteresis: clearing needs the value confidently past the threshold,
   not merely back across it. *)
let clear_ok rule v =
  match rule.predicate with
  | Above th -> v <= th -. rule.clear_margin
  | Below th -> v >= th +. rule.clear_margin
  | Stale s -> v <= s

let evaluate t ~now series =
  let raised = ref [] in
  let cleared = ref [] in
  List.iter
    (fun tr ->
      let r = tr.t_rule in
      if now >= r.warmup then
        match observed tr ~now series with
        | None -> (
          (* No data: benign for arming states; a firing alert keeps
             firing (the metric vanishing is not evidence of health). *)
          match tr.st with
          | Pending _ -> tr.st <- Healthy
          | Healthy | Firing _ | Recovering _ -> ())
        | Some v -> (
          let raise_now () =
            let a = { rule = r; raised_at = now; value = v; cleared_at = None } in
            t.log <- a :: t.log;
            raised := a :: !raised;
            tr.st <- Firing a
          in
          match tr.st with
          | Healthy ->
            if breach r v then
              if r.for_duration <= 0.0 then raise_now () else tr.st <- Pending now
          | Pending since ->
            if not (breach r v) then tr.st <- Healthy
            else if now -. since >= r.for_duration then raise_now ()
          | Firing a ->
            if clear_ok r v then
              if r.clear_after <= 0.0 then begin
                a.cleared_at <- Some now;
                cleared := a :: !cleared;
                tr.st <- Healthy
              end
              else tr.st <- Recovering (a, now)
          | Recovering (a, since) ->
            if breach r v then tr.st <- Firing a
            else if not (clear_ok r v) then
              (* Inside the hysteresis band: not breaching, not
                 confidently healthy.  Restart the clear timer. *)
              tr.st <- Recovering (a, now)
            else if now -. since >= r.clear_after then begin
              a.cleared_at <- Some now;
              cleared := a :: !cleared;
              tr.st <- Healthy
            end))
    t.tracked;
  (List.rev !raised, List.rev !cleared)
