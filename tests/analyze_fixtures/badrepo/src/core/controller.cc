/**
 * @file
 * Fixture: pipeline-layer DRAM commands that bypass charge(), so a
 * Functional access would bill DRAM -- once on a module member, once
 * through the in-place (std::optional) stacked module an organization
 * inherits.
 */

unsigned long
Controller::fetch(unsigned long now, unsigned long line)
{
    return offchip_.request(now, line, false, 64);
}

unsigned long
Controller::fill(unsigned long now, unsigned long line)
{
    return stacked_->access(now, line, true, 64);
}
