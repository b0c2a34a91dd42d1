type plan = {
  code_words : int;
  leaders : int array;
  pcs : int array array;
}

type stats = {
  translations : int;
  invalidations : int;
  block_exits : int;
}

let rank plan ~hot =
  let n = Array.length plan.leaders in
  let order = Array.init n (fun b -> b) in
  let weight b = if b < Array.length hot then hot.(b) else 0 in
  Array.sort
    (fun a b ->
      match compare (weight b) (weight a) with 0 -> compare a b | c -> c)
    order;
  order
