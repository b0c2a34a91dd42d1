type capability =
  | Bio_chem_design
  | Cyber_offense
  | Disinformation
  | Physical_control
  | Self_replication

type autonomy = Tool | Supervised | Autonomous

type card = {
  name : string;
  parameters : float;
  training_tokens : float;
  autonomy : autonomy;
  capabilities : capability list;
}

type tier = Minimal | Limited | High | Systemic

let tier_to_string = function
  | Minimal -> "minimal"
  | Limited -> "limited"
  | High -> "high"
  | Systemic -> "systemic"

let tier_rank = function Minimal -> 0 | Limited -> 1 | High -> 2 | Systemic -> 3

(* Point schedule:
   size:        >= 1e12 params: 4   >= 1e11: 3   >= 1e10: 2   >= 1e9: 1
   data:        >= 1e13 tokens: 2   >= 1e12: 1
   autonomy:    Tool 0, Supervised 2, Autonomous 4
   capability:  bio/chem 4, cyber 3, disinfo 2, physical 3, self-rep 5 *)
let size_points p =
  if p >= 1e12 then 4 else if p >= 1e11 then 3 else if p >= 1e10 then 2
  else if p >= 1e9 then 1 else 0

let data_points d = if d >= 1e13 then 2 else if d >= 1e12 then 1 else 0

let autonomy_points = function Tool -> 0 | Supervised -> 2 | Autonomous -> 4

let capability_points = function
  | Bio_chem_design -> 4
  | Cyber_offense -> 3
  | Disinformation -> 2
  | Physical_control -> 3
  | Self_replication -> 5

let score card =
  size_points card.parameters + data_points card.training_tokens
  + autonomy_points card.autonomy
  + List.fold_left (fun acc c -> acc + capability_points c) 0
      (List.sort_uniq compare card.capabilities)

let classify card =
  let hard_systemic =
    List.mem Self_replication card.capabilities
    || (card.autonomy = Autonomous && List.mem Physical_control card.capabilities)
  in
  if hard_systemic then Systemic
  else begin
    let s = score card in
    if s < 4 then Minimal else if s < 8 then Limited else if s < 13 then High
    else Systemic
  end

let requires_guillotine card = classify card = Systemic
