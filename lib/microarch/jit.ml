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
