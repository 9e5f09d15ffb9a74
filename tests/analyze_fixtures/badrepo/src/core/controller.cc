/**
 * @file
 * Fixture: a pipeline-layer DRAM request that bypasses charge(), so a
 * Functional access would bill DRAM.
 */

unsigned long
Controller::fetch(unsigned long now, unsigned long line)
{
    return offchip_.request(now, line, false, 64);
}
